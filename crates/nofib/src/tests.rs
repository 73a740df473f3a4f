//! Harness tests: every benchmark compiles, lints, runs identically under
//! both pipelines, and the headline Table-1 shapes hold.

use crate::{
    format_report, lower, measure, programs, run_program, run_program_with_reports, summarize,
    Suite,
};
use fj_ast::{Expr, JoinBind, LetBind};
use fj_core::{apply_pass, optimize, OptConfig, Pass, SimplOpts};
use fj_eval::{EvalMode, Value};
use std::sync::Arc;

/// EXPERIMENTS.md's T1 table: `(program, baseline allocs, join-points
/// allocs)` for every program in the suite.
const TABLE1: &[(&str, u64, u64)] = &[
    ("fibheaps", 965, 965),
    ("ida", 23, 23),
    ("nucleic2", 241, 241),
    ("para", 193, 121),
    ("primetest", 399, 200),
    ("simple", 31, 31),
    ("solid", 307, 81),
    ("sphere", 258, 61),
    ("transform", 770, 770),
    ("boyer", 359, 359),
    ("clausify", 691, 691),
    ("knights", 2710, 302),
    ("mandel", 327, 121),
    ("queens", 1047, 153),
    ("anna", 0, 0),
    ("cacheprof", 0, 0),
    ("fem", 201, 201),
    ("gamteb", 76, 26),
    ("hpg", 102, 102),
    ("parser", 451, 151),
    ("rsa", 41, 41),
    ("compress", 222, 172),
    ("grep", 428, 146),
    ("infer", 748, 748),
    ("k-nucleotide", 605, 155),
    ("n-body", 287, 0),
    ("spectral-norm", 0, 0),
    ("binary-trees", 261, 261),
    ("fannkuch-redux", 385, 343),
];

/// EXPERIMENTS.md's call-by-need T1 table: as [`TABLE1`], with both
/// pipelines' output run by need.
const TABLE1_NEED: &[(&str, u64, u64)] = &[
    ("fibheaps", 1206, 1206),
    ("ida", 381, 381),
    ("nucleic2", 402, 402),
    ("para", 470, 398),
    ("primetest", 1120, 921),
    ("simple", 1292, 1292),
    ("solid", 3305, 3079),
    ("sphere", 1388, 1288),
    ("transform", 1281, 1281),
    ("boyer", 960, 960),
    ("clausify", 1380, 1380),
    ("knights", 7204, 4796),
    ("mandel", 3108, 2902),
    ("queens", 3211, 2317),
    ("anna", 750, 750),
    ("cacheprof", 1337, 1337),
    ("fem", 302, 302),
    ("gamteb", 560, 510),
    ("hpg", 500, 500),
    ("parser", 902, 602),
    ("rsa", 642, 642),
    ("compress", 464, 414),
    ("grep", 1225, 943),
    ("infer", 256, 256),
    ("k-nucleotide", 1603, 1153),
    ("n-body", 487, 486),
    ("spectral-norm", 1404, 1404),
    ("binary-trees", 776, 776),
    ("fannkuch-redux", 534, 492),
];

/// Every program runs, both pipelines agree, and each program's
/// allocations match Table 1 exactly — so an optimizer change that gains
/// or loses a conversion fails here, not only in a benchmark total.
#[test]
fn all_programs_agree_across_pipelines() {
    let progs = programs();
    assert_eq!(progs.len(), TABLE1.len(), "every program has a T1 row");
    for p in progs {
        let row = run_program(&p);
        // Join points never allocate more in our suite.
        assert!(
            row.joined.total_allocs() <= row.baseline.total_allocs(),
            "{}: joined {} > baseline {}",
            p.name,
            row.joined.total_allocs(),
            row.baseline.total_allocs()
        );
        let &(_, base, joins) = TABLE1
            .iter()
            .find(|(name, _, _)| *name == p.name)
            .unwrap_or_else(|| panic!("{}: no T1 row", p.name));
        assert_eq!(
            (row.baseline.total_allocs(), row.joined.total_allocs()),
            (base, joins),
            "{}: (baseline, joins) allocations differ from Table 1",
            p.name
        );
    }
}

/// [`TABLE1`] by need, the paper's evaluation order (GHC is lazy): both
/// pipelines compute the candle's value, join points never allocate
/// more, and each program's allocations match [`TABLE1_NEED`] exactly.
#[test]
fn need_mode_allocations_match_table1_need() {
    let progs = programs();
    assert_eq!(progs.len(), TABLE1_NEED.len(), "every program has a row");
    for p in progs {
        let want = crate::candles::candle(p.name)
            .unwrap_or_else(|| panic!("{}: no native candle registered", p.name))(
        );
        let allocs = |cfg: &OptConfig| {
            let (term, _) = lower(p.source, cfg);
            let out = fj_eval::run(&term, EvalMode::CallByNeed, crate::FUEL)
                .unwrap_or_else(|e| panic!("{}: by need: {e}", p.name));
            assert_eq!(out.value, Value::Int(want), "{}: by-need value", p.name);
            out.metrics.total_allocs()
        };
        let (base, joins) = (
            allocs(&OptConfig::baseline()),
            allocs(&OptConfig::join_points()),
        );
        assert!(
            joins <= base,
            "{}: joined {joins} > baseline {base}",
            p.name
        );
        let &(_, want_base, want_joins) = TABLE1_NEED
            .iter()
            .find(|(name, _, _)| *name == p.name)
            .unwrap_or_else(|| panic!("{}: no need row", p.name));
        assert_eq!(
            (base, joins),
            (want_base, want_joins),
            "{}: (baseline, joins) need-mode allocations differ from the table",
            p.name
        );
    }
}

/// The paper's most dramatic row: n-body loses all allocations.
#[test]
fn nbody_hits_minus_100_percent() {
    let p = programs().into_iter().find(|p| p.name == "n-body").unwrap();
    let row = run_program(&p);
    assert_eq!(
        row.joined.total_allocs(),
        0,
        "n-body must be allocation-free with join points: {}",
        row.joined
    );
    assert!(
        row.baseline.total_allocs() > 0,
        "baseline must allocate: {}",
        row.baseline
    );
    assert_eq!(row.delta_pct(), -100.0);
}

/// k-nucleotide keeps its sequence allocation but loses the per-position
/// matcher traffic: a large-but-partial win.
#[test]
fn knucleotide_large_partial_win() {
    let p = programs()
        .into_iter()
        .find(|p| p.name == "k-nucleotide")
        .unwrap();
    let row = run_program(&p);
    let delta = row.delta_pct();
    assert!(
        delta <= -30.0,
        "expected a large reduction, got {delta:+.1}% ({} -> {})",
        row.baseline.total_allocs(),
        row.joined.total_allocs()
    );
    assert!(
        row.joined.total_allocs() > 0,
        "the sequence itself still allocates"
    );
}

/// Suite shapes: shootout is dramatic, spectral/real are modest, and no
/// suite regresses on aggregate.
#[test]
fn suite_shapes_match_paper() {
    let rows: Vec<_> = programs().iter().map(run_program).collect();
    let shoot = summarize(&rows, Suite::Shootout);
    assert_eq!(shoot.min, -100.0, "shootout Min must be -100%");
    assert!(
        shoot.geo_mean.is_none(),
        "shootout geo-mean is n/a at -100%"
    );

    let spec = summarize(&rows, Suite::Spectral);
    assert!(
        spec.min < 0.0,
        "spectral should show improvements: {spec:?}"
    );
    assert!(
        spec.max <= 0.0 + 1e-9,
        "no spectral regressions in our suite: {spec:?}"
    );

    let real = summarize(&rows, Suite::Real);
    assert!(real.min < 0.0, "real should show improvements: {real:?}");
}

/// `solid` and `sphere` (find/any-shaped) improve more than `nucleic2`
/// and `transform` (construction-shaped) — the within-suite shape.
#[test]
fn find_shaped_programs_win_more() {
    let rows: Vec<_> = programs().iter().map(run_program).collect();
    let delta = |name: &str| {
        rows.iter()
            .find(|r| r.name == name)
            .unwrap_or_else(|| panic!("missing {name}"))
            .delta_pct()
    };
    assert!(delta("solid") < delta("nucleic2"));
    assert!(delta("sphere") < delta("transform"));
}

/// A pinned result value stays stable across optimizer changes.
#[test]
fn primetest_value_pinned() {
    let p = programs()
        .into_iter()
        .find(|p| p.name == "primetest")
        .unwrap();
    let row = run_program(&p);
    assert_eq!(row.value, 46); // π(200)
}

/// `measure` with no optimization still computes the right answers
/// (sanity for the harness itself).
#[test]
fn unoptimized_measure_agrees() {
    for p in programs().into_iter().take(4) {
        let (v_none, _) = measure(p.source, &OptConfig::none());
        let (v_join, _) = measure(p.source, &OptConfig::join_points());
        assert_eq!(v_none, v_join, "{}", p.name);
    }
}

/// The observability acceptance check: on contification-sensitive
/// benchmarks the join-points pipeline allocates *strictly* less than
/// the baseline, and the pipeline report shows nonzero simplify and
/// contify rewrite counters explaining why.
#[test]
fn report_shows_strict_wins_with_nonzero_counters() {
    for name in ["queens", "knights", "n-body", "sphere", "grep"] {
        let p = programs().into_iter().find(|p| p.name == name).unwrap();
        let rr = run_program_with_reports(&p);
        assert!(
            rr.row.joined.total_allocs() < rr.row.baseline.total_allocs(),
            "{name}: joined {} must beat baseline {}",
            rr.row.joined.total_allocs(),
            rr.row.baseline.total_allocs()
        );
        let totals = rr.joined_report.totals();
        assert!(totals.contified > 0, "{name}: contify must fire: {totals}");
        assert!(
            rr.joined_report.rewrites_for("simplify") > 0,
            "{name}: simplify must fire: {totals}"
        );
    }
}

/// The markdown report renders every section with real rows, including
/// the backend table's timing columns and a geomean row per ratio.
#[test]
fn format_report_renders_markdown_tables() {
    let p = programs().into_iter().find(|p| p.name == "queens").unwrap();
    let row = run_program_with_reports(&p);
    assert!(row.vm_exec > std::time::Duration::ZERO);
    assert!(row.candle > std::time::Duration::ZERO);
    let s = format_report(&[row]);
    for needle in [
        "## Machine metrics",
        "## Backend wall time (join-points pipeline)",
        "| program | machine | vm codegen | vm exec | candle | machine / vm exec | vm exec / candle |",
        "## Optimizer activity (join-points pipeline)",
        "## Per-pass detail",
        "| queens |",
        "### queens",
        "| contify |",
    ] {
        assert!(s.contains(needle), "missing {needle:?} in:\n{s}");
    }
    let geomean = s
        .lines()
        .find(|l| l.starts_with("| geomean |"))
        .unwrap_or_else(|| panic!("no geomean row in:\n{s}"));
    assert_eq!(geomean.matches('×').count(), 2, "{geomean}");
}

/// On the Sec. 5 fusion-matrix programs (skip-less and skip-ful
/// steppers, both optimizer pipelines), the fused VM charges exactly
/// the allocation counters the unfused VM does — superinstructions are
/// a dispatch optimization, never a cost-model change.
#[test]
fn vm_fusion_counters_exact_on_fusion_matrix() {
    use fj_ast::Dsl;
    use fj_eval::EvalMode;
    use fj_fusion::StepVariant;
    use fj_vm::{compile_with, run_program, CompileOpts};
    for variant in [StepVariant::Skipless, StepVariant::Skip] {
        for (label, cfg) in [
            ("baseline", OptConfig::baseline()),
            ("join-points", OptConfig::join_points()),
        ] {
            let mut d = Dsl::new();
            let e = crate::fusion_exp::pipeline(&mut d, variant, 200);
            let opt = fj_core::optimize(&e, &d.data_env, &mut d.supply, &cfg)
                .unwrap_or_else(|err| panic!("{variant:?} {label}: optimize: {err}"));
            let unfused = compile_with(&opt, EvalMode::CallByValue, CompileOpts { fuse: false })
                .unwrap_or_else(|err| panic!("{variant:?} {label}: compile: {err}"));
            let fused = compile_with(&opt, EvalMode::CallByValue, CompileOpts { fuse: true })
                .unwrap_or_else(|err| panic!("{variant:?} {label}: compile: {err}"));
            let u = run_program(&unfused, crate::VM_FUEL)
                .unwrap_or_else(|err| panic!("{variant:?} {label}: unfused vm: {err}"));
            let f = run_program(&fused, crate::VM_FUEL)
                .unwrap_or_else(|err| panic!("{variant:?} {label}: fused vm: {err}"));
            assert_eq!(
                f.value,
                fj_eval::Value::Int(crate::fusion_exp::reference(200)),
                "{variant:?} {label}"
            );
            assert_eq!(u.value, f.value, "{variant:?} {label}");
            assert_eq!(
                (
                    u.metrics.let_allocs,
                    u.metrics.arg_allocs,
                    u.metrics.con_allocs,
                    u.metrics.jumps
                ),
                (
                    f.metrics.let_allocs,
                    f.metrics.arg_allocs,
                    f.metrics.con_allocs,
                    f.metrics.jumps
                ),
                "{variant:?} {label}: fusion changed the counters"
            );
        }
    }
}

/// Every native candle computes the same value as the VM, so the
/// `fj report` hardware-distance ratio (VM exec / candle) always
/// compares identical computations.
#[test]
fn candles_agree_with_vm() {
    let cfg = OptConfig::join_points();
    for p in programs() {
        let f = crate::candles::candle(p.name)
            .unwrap_or_else(|| panic!("{}: no native candle registered", p.name));
        let (e, _) = lower(p.source, &cfg);
        let out = fj_vm::run(&e, fj_eval::EvalMode::CallByValue, crate::VM_FUEL)
            .unwrap_or_else(|err| panic!("{}: vm: {err}", p.name));
        let fj_eval::Value::Int(v) = out.value else {
            panic!("{}: main must return Int", p.name);
        };
        assert_eq!(f(), v, "{}: candle disagrees with the VM", p.name);
    }
}

/// The adaptive timer returns a candle's value and a nonzero per-rep
/// duration.
#[test]
fn candle_timer_reports_value_and_time() {
    let f = crate::candles::candle("primetest").unwrap();
    let (value, per_rep) = crate::time_adaptive(f);
    assert_eq!(value, 46);
    assert!(per_rep > std::time::Duration::ZERO);
}

/// The fusion experiment's headline series.
#[test]
fn fusion_series_shapes() {
    use crate::fusion_exp::{run_fusion_experiment, FusionPoint};
    use fj_fusion::StepVariant;
    let pts = run_fusion_experiment(&[50, 200]);
    let find = |v: StepVariant, pl: &str, n: i64| -> &FusionPoint {
        pts.iter()
            .find(|p| p.variant == v && p.pipeline == pl && p.n == n)
            .expect("point present")
    };
    // Skip-less + join points: allocation-free at every n.
    for n in [50, 200] {
        assert_eq!(
            find(StepVariant::Skipless, "join-points", n)
                .metrics
                .total_allocs(),
            0
        );
    }
    // Skip-less + baseline: grows with n.
    let b1 = find(StepVariant::Skipless, "baseline", 50)
        .metrics
        .total_allocs();
    let b2 = find(StepVariant::Skipless, "baseline", 200)
        .metrics
        .total_allocs();
    assert!(b2 > b1 * 2, "baseline must scale with n: {b1} vs {b2}");
}

/// The first `Arc`-held subterm on every path down from the root: what a
/// pass that changed nothing must hand back as it was. (A recursive
/// group's right-hand sides and a case's alternatives are held inline,
/// so the walk looks through them.)
fn top_arcs(e: &Expr, out: &mut Vec<*const Expr>) {
    match e {
        Expr::Var(_) | Expr::Lit(_) => {}
        Expr::Lam(_, c) | Expr::TyLam(_, c) | Expr::TyApp(c, _) => out.push(Arc::as_ptr(c)),
        Expr::App(f, a) => out.extend([Arc::as_ptr(f), Arc::as_ptr(a)]),
        Expr::Prim(_, args) | Expr::Con(_, _, args) | Expr::Jump(_, _, args, _) => {
            args.iter().for_each(|a| top_arcs(a, out));
        }
        Expr::Case(s, alts) => {
            out.push(Arc::as_ptr(s));
            alts.iter().for_each(|a| top_arcs(&a.rhs, out));
        }
        Expr::Let(LetBind::NonRec(_, rhs), body) => {
            out.extend([Arc::as_ptr(rhs), Arc::as_ptr(body)]);
        }
        Expr::Let(LetBind::Rec(binds), body) => {
            binds.iter().for_each(|(_, rhs)| top_arcs(rhs, out));
            out.push(Arc::as_ptr(body));
        }
        Expr::Join(JoinBind::NonRec(def), body) => {
            out.extend([std::ptr::from_ref(&def.body), Arc::as_ptr(body)]);
        }
        Expr::Join(JoinBind::Rec(defs), body) => {
            defs.iter().for_each(|d| top_arcs(&d.body, out));
            out.push(Arc::as_ptr(body));
        }
    }
}

/// Contify, Float In, Float Out and CSE, run once more over each
/// join-points-optimized program: every run that reports no change hands
/// back the input's own subtrees instead of a copy.
#[test]
fn unchanged_pass_runs_share_the_input_subtrees() {
    let mut unchanged = 0;
    for p in programs() {
        let mut l = fj_surface::compile(p.source).expect("compiles");
        let opt = optimize(
            &l.expr,
            &l.data_env,
            &mut l.supply,
            &OptConfig::join_points(),
        )
        .expect("optimizes");
        let mut before = Vec::new();
        top_arcs(&opt, &mut before);
        assert!(!before.is_empty(), "{}: no shared root children", p.name);
        for pass in [Pass::Contify, Pass::FloatIn, Pass::FloatOut, Pass::Cse] {
            let (out, _, changed) = apply_pass(
                &opt,
                &l.data_env,
                &mut l.supply,
                pass,
                &SimplOpts::default(),
            )
            .expect("pass runs");
            if changed {
                continue;
            }
            unchanged += 1;
            let mut after = Vec::new();
            top_arcs(&out, &mut after);
            assert_eq!(
                before,
                after,
                "{} [{}]: an unchanged run copied the input",
                p.name,
                pass.name()
            );
        }
    }
    assert!(unchanged > 0, "no pass run left a program unchanged");
}
