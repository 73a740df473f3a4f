//! End-to-end tests for the `fj` command-line driver, run against the
//! sample programs in `programs/`.

use std::process::Command;

fn fj(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_fj"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("spawn fj");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn run_sum_program() {
    let (stdout, _, ok) = fj(&["run", "programs/sum.fj"]);
    assert!(ok);
    assert_eq!(stdout.trim(), "500500");
}

#[test]
fn metrics_show_zero_allocations_for_sum() {
    // The VM must count exactly what the machine counts.
    for backend in ["machine", "vm"] {
        let (stdout, stderr, ok) =
            fj(&["run", "--backend", backend, "--metrics", "programs/sum.fj"]);
        assert!(ok, "{backend}: {stderr}");
        assert_eq!(stdout.trim(), "500500", "{backend}");
        assert!(
            stderr.contains(&format!("| {backend}] ")),
            "{backend}: {stderr}"
        );
        assert!(
            stderr.contains("allocs=0 (let=0 arg=0 con=0) jumps=1001"),
            "{backend}: {stderr}"
        );
    }
}

#[test]
fn baseline_flag_changes_pipeline() {
    let (_, stderr, ok) = fj(&["run", "--metrics", "--baseline", "programs/sum.fj"]);
    assert!(ok);
    assert!(stderr.contains("[baseline"), "stderr: {stderr}");
}

#[test]
fn modes_agree() {
    for mode in ["name", "need", "value"] {
        let (stdout, _, ok) = fj(&["run", "--mode", mode, "programs/any.fj"]);
        assert!(ok, "mode {mode}");
        assert_eq!(stdout.trim(), "4", "mode {mode}");
    }
}

#[test]
fn dump_shows_join_points() {
    let (stdout, _, ok) = fj(&["dump", "programs/sum.fj"]);
    assert!(ok);
    assert!(stdout.contains("join rec"), "{stdout}");
    assert!(stdout.contains("jump"), "{stdout}");
}

/// `dump` names the pipeline by the preset's wire name, the one the
/// server's `preset` field takes.
#[test]
fn dump_names_the_preset_by_its_wire_name() {
    for (flags, name) in [
        (&[][..], "join-points"),
        (&["--baseline"], "baseline"),
        (&["-O0"], "none"),
    ] {
        let args: Vec<&str> = ["dump"]
            .iter()
            .chain(flags)
            .chain(&["programs/sum.fj"])
            .copied()
            .collect();
        let (stdout, stderr, ok) = fj(&args);
        assert!(ok, "{flags:?}: {stderr}");
        assert!(
            stdout.starts_with(&format!("-- pipeline: {name} (")),
            "{flags:?}: {stdout}"
        );
    }
}

#[test]
fn dump_before_shows_letrec() {
    let (stdout, _, ok) = fj(&["dump", "--before", "programs/sum.fj"]);
    assert!(ok);
    assert!(stdout.contains("let rec"), "{stdout}");
    assert!(!stdout.contains("jump"), "{stdout}");
}

#[test]
fn erase_output_is_join_free() {
    let (stdout, _, ok) = fj(&["erase", "programs/sum.fj"]);
    assert!(ok);
    assert!(!stdout.contains("jump"), "{stdout}");
    assert!(!stdout.contains("join"), "{stdout}");
}

#[test]
fn check_reports_ok() {
    let (stdout, _, ok) = fj(&["check", "programs/shapes.fj"]);
    assert!(ok);
    assert!(stdout.contains("OK"));
}

#[test]
fn shapes_program_runs() {
    let (stdout, _, ok) = fj(&["run", "programs/shapes.fj"]);
    assert!(ok);
    assert_eq!(stdout.trim(), "117");
}

#[test]
fn missing_file_fails_cleanly() {
    let (_, stderr, ok) = fj(&["run", "programs/nope.fj"]);
    assert!(!ok);
    assert!(stderr.contains("cannot read"), "{stderr}");
}

#[test]
fn bad_usage_fails_cleanly() {
    let (_, stderr, ok) = fj(&["frobnicate", "programs/sum.fj"]);
    assert!(!ok);
    assert!(stderr.contains("usage"), "{stderr}");
}

#[test]
fn fuel_limit_is_respected() {
    let (_, stderr, ok) = fj(&["run", "--fuel", "10", "programs/sum.fj"]);
    assert!(!ok);
    assert!(stderr.contains("step budget"), "{stderr}");
}

#[test]
fn report_renders_markdown_comparison() {
    let (stdout, stderr, ok) = fj(&["report"]);
    assert!(ok, "fj report failed: {stderr}");
    assert!(stdout.contains("## Machine metrics"), "{stdout}");
    assert!(stdout.contains("## Optimizer activity"), "{stdout}");
    assert!(stdout.contains("| n-body |"), "{stdout}");
    // The backend table times VM codegen and execution apart, beside the
    // native candle, with a geomean row under both ratios.
    assert!(
        stdout.contains(
            "| machine | vm codegen | vm exec | candle | machine / vm exec | vm exec / candle |"
        ),
        "{stdout}"
    );
    assert!(stdout.contains("| geomean | | | | | "), "{stdout}");
    // The headline shootout row: join points erase all allocations.
    assert!(stdout.contains("-100.0%"), "{stdout}");
}

/// As [`fj`], but returning the raw exit code (the CLI's documented
/// contract: 2 usage/parse, 3 type/lint, 4 optimizer, 5 budget — the
/// `code` a served request answers for the same failure).
fn fj_code(args: &[&str]) -> (String, String, Option<i32>) {
    let out = Command::new(env!("CARGO_BIN_EXE_fj"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("spawn fj");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code(),
    )
}

#[test]
fn parse_error_exits_2_with_diagnostic() {
    let (_, stderr, code) = fj_code(&["run", "programs/errors/syntax_error.fj"]);
    assert_eq!(code, Some(2), "stderr: {stderr}");
    assert!(stderr.contains("parse error at"), "{stderr}");
}

#[test]
fn type_error_exits_3_with_diagnostic() {
    let (_, stderr, code) = fj_code(&["run", "programs/errors/type_error.fj"]);
    assert_eq!(code, Some(3), "stderr: {stderr}");
    assert!(stderr.contains("not in scope"), "{stderr}");
}

#[test]
fn usage_error_exits_2() {
    for args in [
        &["frobnicate"][..],
        &["run", "--mode", "lazy", "programs/sum.fj"],
    ] {
        let (_, stderr, code) = fj_code(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage"), "{args:?}: {stderr}");
    }
}

#[test]
fn fuel_exhaustion_exits_5_on_both_backends() {
    for backend in ["machine", "vm"] {
        let (_, stderr, code) = fj_code(&[
            "run",
            "--backend",
            backend,
            "--fuel",
            "1000",
            "programs/diverge.fj",
        ]);
        assert_eq!(code, Some(5), "backend {backend}: stderr: {stderr}");
        assert!(stderr.contains("budget exhausted"), "{backend}: {stderr}");
    }
}

#[test]
fn wall_clock_timeout_exits_5_on_both_backends() {
    for backend in ["machine", "vm"] {
        let (_, stderr, code) = fj_code(&[
            "run",
            "--backend",
            backend,
            "--timeout-ms",
            "50",
            "programs/diverge.fj",
        ]);
        assert_eq!(code, Some(5), "backend {backend}: stderr: {stderr}");
        assert!(
            stderr.contains("wall-clock deadline exhausted"),
            "{backend}: {stderr}"
        );
    }
}

// ---- adversarial bands: parser depth and the growth budget --------------
//
// The fuzz farm's adversarial bands push generated programs up against
// these limits; the tests below pin the *boundary* behavior for curated
// inputs: one step inside each limit compiles, one step outside fails
// with the documented exit code and a one-line diagnostic — never a
// panic or a stack overflow (either would surface as a signal death,
// i.e. `code == None`, or a "panicked" line on stderr).

/// `k` pairs of parentheses around a literal. Each pair descends two
/// grammar levels (expression, then atom), so the parser's depth limit
/// of `MAX_NESTING_DEPTH` is reached at `MAX_NESTING_DEPTH / 2` pairs.
fn nested_parens_program(k: usize) -> String {
    format!("def main : Int = {}1{};\n", "(".repeat(k), ")".repeat(k))
}

/// A large (> `GROWTH_FLOOR` nodes) loop whose body cannot be constant
/// folded: the contification pass rewrites it while keeping its size, so
/// any growth factor below 1 trips the budget and a generous one passes.
fn growth_heavy_program() -> String {
    let terms: Vec<String> = (1..120).map(|i| format!("n * {i}")).collect();
    format!(
        "def main : Int =\n  letrec loop : Int -> Int -> Int =\n    \
         \\(n : Int) (acc : Int) ->\n      \
         if n <= 0 then acc else loop (n - 1) (acc + {})\n  in loop 10 0;\n",
        terms.join(" + ")
    )
}

fn write_temp(name: &str, contents: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("fj_cli_{}_{name}.fj", std::process::id()));
    std::fs::write(&path, contents).expect("write temp program");
    path
}

#[test]
fn nesting_depth_band_is_a_clean_parse_error() {
    let limit_pairs = system_fj::surface::MAX_NESTING_DEPTH / 2;

    let inside = write_temp("depth_inside", &nested_parens_program(limit_pairs - 1));
    let (stdout, stderr, code) = fj_code(&["check", inside.to_str().unwrap()]);
    assert_eq!(code, Some(0), "one inside the limit: {stderr}");
    assert!(stdout.contains("OK"), "{stdout}");

    let outside = write_temp("depth_outside", &nested_parens_program(limit_pairs));
    for command in ["check", "run"] {
        let (_, stderr, code) = fj_code(&[command, outside.to_str().unwrap()]);
        assert_eq!(code, Some(2), "{command}: {stderr}");
        assert!(
            stderr.contains("nesting exceeds depth limit"),
            "{command}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{command}: {stderr}");
    }
    let _ = std::fs::remove_file(inside);
    let _ = std::fs::remove_file(outside);
}

#[test]
fn growth_budget_band_exits_4_cleanly() {
    let program = write_temp("growth", &growth_heavy_program());
    let path = program.to_str().unwrap();

    // Generous budget: the same program sails through.
    let (_, stderr, code) = fj_code(&["dump", "--max-growth", "100.0", path]);
    assert_eq!(code, Some(0), "generous budget: {stderr}");

    // A factor below 1 demands shrinkage the passes can't deliver.
    for command in ["dump", "run"] {
        let (_, stderr, code) = fj_code(&[command, "--max-growth", "0.5", path]);
        assert_eq!(code, Some(4), "{command}: {stderr}");
        assert!(stderr.contains("growth budget"), "{command}: {stderr}");
        assert!(!stderr.contains("panicked"), "{command}: {stderr}");
    }
    let _ = std::fs::remove_file(program);
}

#[test]
fn resilient_run_matches_strict_run() {
    let (strict, _, ok) = fj(&["run", "programs/sum.fj"]);
    assert!(ok);
    let (resilient, stderr, ok) = fj(&["run", "--resilient", "programs/sum.fj"]);
    assert!(ok, "stderr: {stderr}");
    assert_eq!(strict.trim(), resilient.trim());
    // Nothing failed, so nothing was rolled back.
    assert!(!stderr.contains("rolled back"), "{stderr}");
}

#[test]
fn resilient_budget_flags_are_accepted() {
    let (stdout, stderr, ok) = fj(&[
        "run",
        "--resilient",
        "--pass-deadline-ms",
        "10000",
        "--max-growth",
        "100.0",
        "--max-passes",
        "64",
        "programs/sum.fj",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert_eq!(stdout.trim(), "500500");
}

/// One failure class per row: `fj run` with the flags must exit with the
/// `code` a server answers to a `run` request for the same program and
/// settings, and both must be the documented code.
#[test]
fn every_failure_class_exits_with_the_served_code() {
    use system_fj::server::json::{self, Value};
    use system_fj::server::ServerState;

    let growth = write_temp("classes_growth", &growth_heavy_program());
    let growth = growth.to_str().unwrap();
    let mut rows = vec![
        (vec![], "programs/errors/syntax_error.fj", vec![], 2),
        (vec![], "programs/errors/type_error.fj", vec![], 3),
        (
            vec!["--max-growth", "0.5"],
            growth,
            vec![("max_growth", Value::Num(0.5))],
            4,
        ),
        (
            vec!["--pass-deadline-ms", "0"],
            "programs/sum.fj",
            vec![("deadline_ms", Value::num(0))],
            5,
        ),
    ];
    for backend in ["machine", "vm"] {
        rows.push((
            vec!["--backend", backend, "--fuel", "1000"],
            "programs/diverge.fj",
            vec![("backend", Value::str(backend)), ("fuel", Value::num(1000))],
            5,
        ));
        rows.push((
            vec!["--backend", backend, "--timeout-ms", "50"],
            "programs/diverge.fj",
            vec![
                ("backend", Value::str(backend)),
                ("timeout_ms", Value::num(50)),
            ],
            5,
        ));
    }
    let state = ServerState::with_defaults();
    for (flags, program, fields, code) in rows {
        let mut args = vec!["run"];
        args.extend(&flags);
        args.push(program);
        let source =
            std::fs::read_to_string(std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(program))
                .unwrap();
        let mut request = vec![("op", Value::str("run")), ("program", Value::str(source))];
        request.extend(fields);
        let (response, _) = state.handle_line(&Value::obj(request).to_string());
        let served = json::parse(&response)
            .unwrap()
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Value::as_u64);
        assert_eq!(served, Some(code), "{args:?}: {response}");
        let (_, stderr, exit) = fj_code(&args);
        assert_eq!(exit, Some(code as i32), "{args:?}: {stderr}");
    }
    // A pass-count budget has no wire form; it is a budget like the
    // deadline.
    let (_, stderr, exit) = fj_code(&["run", "--max-passes", "1", "programs/sum.fj"]);
    assert_eq!(exit, Some(5), "{stderr}");
    let _ = std::fs::remove_file(growth);
}

/// The pipeline is built after every flag is read, so a preset flag
/// cannot drop a budget flag that came before it.
#[test]
fn preset_and_budget_flags_commute() {
    let growth = write_temp("order_growth", &growth_heavy_program());
    let growth = growth.to_str().unwrap();
    for (preset, budget, program) in [
        ("-O0", ["--pass-deadline-ms", "0"], "programs/sum.fj"),
        ("--baseline", ["--max-growth", "0.5"], growth),
    ] {
        let (_, first, preset_first) = fj_code(&["run", preset, budget[0], budget[1], program]);
        let (_, last, preset_last) = fj_code(&["run", budget[0], budget[1], preset, program]);
        assert_ne!(preset_first, Some(0), "{preset} {budget:?}: {first}");
        assert_eq!(preset_first, preset_last, "{preset} {budget:?}: {last}");
    }
    let _ = std::fs::remove_file(growth);
}

/// `--max-growth` takes what the protocol's `max_growth` takes: a finite
/// factor above zero.
#[test]
fn growth_factors_the_protocol_refuses_are_usage_errors() {
    for factor in ["0", "-1", "nan", "inf"] {
        let (_, stderr, code) = fj_code(&["run", "--max-growth", factor, "programs/sum.fj"]);
        assert_eq!(code, Some(2), "{factor}: {stderr}");
        assert!(stderr.contains("usage"), "{factor}: {stderr}");
    }
}
