//! The fuzz farm: every compile route, cross-checked pairwise, in
//! parallel, with shrinking repros.
//!
//! [`run_farm`] fans generated programs out over the same scoped-thread
//! pool that backs the compile service's batch `compile`
//! ([`fj_core::par_map`]) and runs each one through the full **route
//! matrix**:
//!
//! | routes                  | oracle                                   |
//! |-------------------------|------------------------------------------|
//! | generator vs lint       | generated programs are well typed        |
//! | reference vs machine    | the unoptimized term runs to a value     |
//! | strict vs resilient     | α-equal optimized output                 |
//! | cache-cold vs strict    | a cold [`OptCache`] compile verifies     |
//! | cache-hit vs cache-cold | the hit is served and α-equal            |
//! | machine-unopt vs -opt   | optimization preserves the value         |
//! | optimized vs erased     | Thm. 5: join-free, lints, same value     |
//! | machine vs vm           | same value **and** allocation counters   |
//! | vm-unfused vs vm-fused  | superinstruction fusion preserves both   |
//!
//! Every route runs under the existing guards — per-pass deadlines in
//! the pipeline, fuel plus a wall-clock deadline in both backends — so
//! a pathological generated program degrades into a reported failure,
//! never a hung farm.
//!
//! Failures shrink with the same-route-pair predicate (the minimal
//! repro must fail the *same* oracle, not just any oracle) and are
//! written to `fuzz/corpus/<case-seed>.fj` as comment-headed files
//! whose `-- gen:` line replays through [`crate::codec`].
//!
//! Seed discipline: a farm is identified by one root seed; case `i`
//! derives `case_seed = mix(root, i)` and every random choice in that
//! case flows from it, so any failure replays standalone from the
//! numbers in its repro header.

use crate::codec;
use crate::gen::{build_closed, gen, G};
use crate::rng::SplitMix64;
use crate::saboteur::{saboteur, Sabotage};
use crate::shrink::{shrink, DEFAULT_SHRINK_BUDGET};
use fj_ast::{alpha_eq, DataEnv, Expr};
use fj_core::{
    erase, optimize_cached, optimize_with_report, par_map, OptCache, OptConfig, Recovery,
};
use fj_eval::{EvalMode, Value};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Farm settings. [`FarmConfig::default`] matches the CI smoke tier's
/// shape (fixed seed, bounded budgets); the CLI exposes every knob.
#[derive(Clone, Debug)]
pub struct FarmConfig {
    /// Root seed; every case derives its own seed from it.
    pub seed: u64,
    /// Number of generated programs.
    pub cases: u32,
    /// Generator nesting depth for ordinary (non-adversarial) cases.
    pub depth: u32,
    /// Machine fuel for the reference and optimized runs (the VM gets
    /// 10× this, its documented instruction/step ratio).
    pub fuel: u64,
    /// Wall-clock deadline per execution route.
    pub exec_deadline: Duration,
    /// Per-pass deadline inside the optimizer pipelines.
    pub pass_deadline: Duration,
    /// Stop claiming new cases once this much wall time has elapsed
    /// (already-claimed cases finish; the farm reports how many were
    /// skipped). `None` runs every case.
    pub time_budget: Option<Duration>,
    /// Property-evaluation budget when shrinking a failure.
    pub shrink_budget: u32,
    /// Mix adversarial bands (deep nesting, huge terms, duplicated
    /// subtrees) into the case stream.
    pub adversarial: bool,
    /// Where to write shrunk repros (`None` disables writing).
    pub corpus_dir: Option<PathBuf>,
    /// Corrupt the strict route's pipeline with this saboteur
    /// (mode, target pass): the farm's own self-test. A fired fault
    /// must surface as a strict-vs-resilient mismatch.
    pub sabotage: Option<(Sabotage, usize)>,
}

impl Default for FarmConfig {
    fn default() -> Self {
        FarmConfig {
            seed: 1,
            cases: 256,
            depth: crate::gen::DEFAULT_DEPTH,
            fuel: 5_000_000,
            exec_deadline: Duration::from_secs(2),
            pass_deadline: Duration::from_secs(1),
            time_budget: None,
            shrink_budget: DEFAULT_SHRINK_BUDGET,
            adversarial: true,
            corpus_dir: None,
            sabotage: None,
        }
    }
}

/// A pair of routes whose cross-check failed, e.g.
/// `("strict", "resilient")`.
pub type RoutePair = (&'static str, &'static str);

/// One cross-check failure, shrunk to a minimal description.
#[derive(Clone, Debug)]
pub struct FarmFailure {
    /// Which case failed.
    pub case: u32,
    /// The case's standalone replay seed.
    pub case_seed: u64,
    /// The route pair that disagreed (stable after shrinking by
    /// construction).
    pub routes: RoutePair,
    /// The original failure message.
    pub message: String,
    /// Node count of the originally generated description.
    pub original_size: usize,
    /// The shrunk description.
    pub shrunk: G,
    /// The failure message of the shrunk description.
    pub shrunk_message: String,
    /// Where the repro was written, when a corpus directory is set.
    pub repro: Option<PathBuf>,
}

/// Aggregate farm outcome.
#[derive(Clone, Debug, Default)]
pub struct FarmReport {
    /// Cases actually run.
    pub cases_run: u32,
    /// Cases skipped by the time budget.
    pub cases_skipped: u32,
    /// Programs containing a join point or jump.
    pub join_programs: u32,
    /// Cases drawn from an adversarial band.
    pub adversarial_cases: u32,
    /// All cross-check failures, shrunk.
    pub failures: Vec<FarmFailure>,
    /// Wall-clock time for the whole farm.
    pub elapsed: Duration,
}

impl FarmReport {
    /// Did every route pair agree on every case?
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Derive the standalone seed for case `i` of a farm.
pub fn case_seed(root: u64, case: u32) -> u64 {
    root ^ (u64::from(case) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Which band a case is drawn from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Band {
    /// Plain grammar sample at [`FarmConfig::depth`].
    Plain,
    /// A deep linear binder chain (recursive-traversal stress).
    Deep,
    /// A wide term near the optimizer's growth budget.
    Wide,
    /// One subtree duplicated exponentially (CSE / shared-subtree
    /// stress: maximal sharing opportunity, maximal clone pressure).
    Dup,
}

/// Generate case `i`'s program description. Adversarial bands take
/// three slots in every eight cases.
fn gen_case(cfg: &FarmConfig, case: u32) -> (G, Band) {
    let mut rng = SplitMix64::new(case_seed(cfg.seed, case));
    let band = if cfg.adversarial {
        match case % 8 {
            5 => Band::Deep,
            6 => Band::Wide,
            7 => Band::Dup,
            _ => Band::Plain,
        }
    } else {
        Band::Plain
    };
    let g = match band {
        Band::Plain => gen(&mut rng, cfg.depth),
        Band::Deep => {
            // A let-chain a couple hundred binders deep: every pass,
            // the lint, and both backends traverse the full spine.
            let n = 192 + rng.below(64) as usize;
            let mut g = gen(&mut rng, 1);
            for _ in 0..n {
                let leaf = gen(&mut rng, 0);
                g = G::Let(Box::new(leaf), Box::new(g));
            }
            g
        }
        Band::Wide => {
            // A balanced arithmetic tree of ~2^8 nodes: big enough to
            // brush the growth budget's floor once passes duplicate
            // contexts into branches.
            fn tree(rng: &mut SplitMix64, level: u32) -> G {
                if level == 0 {
                    gen(rng, 1)
                } else {
                    G::Add(
                        Box::new(tree(rng, level - 1)),
                        Box::new(tree(rng, level - 1)),
                    )
                }
            }
            tree(&mut rng, 7)
        }
        Band::Dup => {
            // The same subtree doubled k times: 2^k textual copies of
            // one expression — the worst case for shared-subtree
            // bookkeeping and the best case for CSE.
            let k = 5 + rng.below(3);
            let mut g = gen(&mut rng, 2);
            for _ in 0..k {
                g = G::Add(Box::new(g.clone()), Box::new(g));
            }
            g
        }
    };
    (g, band)
}

/// Run the full route matrix over one description. `Ok(contains_joins)`
/// when every pair agrees; otherwise the failing pair and a message.
///
/// Public so corpus repro files (the `-- gen:` line, via
/// [`crate::codec::parse`]) can be replayed as ordinary tests: a pinned
/// past failure re-runs the exact oracle that caught it.
pub fn check_routes(cfg: &FarmConfig, g: &G, seed: u64) -> Result<bool, (RoutePair, String)> {
    let (d, e) = build_closed(g);
    let joins = e.has_join_or_jump();

    // generator vs lint: the program must be well typed.
    fj_check::lint(&e, &d.data_env).map_err(|err| {
        (
            ("generator", "lint"),
            format!("ill-typed generator output: {err}"),
        )
    })?;

    // reference vs machine: the unoptimized term runs to a value.
    let reference =
        fj_eval::run_with_limits(&e, EvalMode::CallByValue, cfg.fuel, Some(cfg.exec_deadline))
            .map_err(|err| {
                (
                    ("reference", "machine"),
                    format!("unoptimized term failed to run: {err}"),
                )
            })?;

    let clean_cfg = OptConfig::join_points().with_pass_deadline(cfg.pass_deadline);

    // strict route — the only route the saboteur may tap. Lint between
    // passes is off under sabotage so an injected corruption flows into
    // the output (where the cross-check must catch it) instead of
    // erroring inside the pipeline.
    let strict_cfg = match cfg.sabotage {
        Some((mode, target)) => {
            let (tap, _handle) = saboteur(mode, target, seed);
            clean_cfg.clone().with_tap(tap).with_lint(false)
        }
        None => clean_cfg.clone(),
    };
    let mut strict_supply = d.supply.clone();
    let (strict_out, _) = optimize_with_report(&e, &d.data_env, &mut strict_supply, &strict_cfg)
        .map_err(|err| {
            (
                ("strict", "optimizer"),
                format!("strict pipeline failed: {err}"),
            )
        })?;

    // resilient route, never tapped: it differs from the strict route
    // only in `recovery`, and under sabotage it is the clean reference the
    // corrupted strict output is compared against.
    let resilient_cfg = clean_cfg.clone().with_recovery(Recovery::RollBack);
    let mut res_supply = d.supply.clone();
    let (resilient_out, _) = optimize_with_report(&e, &d.data_env, &mut res_supply, &resilient_cfg)
        .map_err(|err| {
            (
                ("resilient", "optimizer"),
                format!("resilient pipeline failed: {err}"),
            )
        })?;
    if !alpha_eq(&strict_out, &resilient_out) {
        return Err((
            ("strict", "resilient"),
            format!(
                "strict and resilient outputs are not α-equal\nstrict:\n{strict_out}\nresilient:\n{resilient_out}"
            ),
        ));
    }

    // cold vs cached compile: the first lookup must miss, verify
    // α-equal to the direct pipeline; the second must hit and verify.
    // The budget is unbounded on purpose: the hit oracle below demands
    // that *every* term is cacheable, including the adversarial
    // huge-term band, which a finite byte budget would refuse.
    let cache = OptCache::with_budget(2, usize::MAX);
    let mut cold_supply = d.supply.clone();
    let (cold_out, _, cold_hit) =
        optimize_cached(&e, &d.data_env, &mut cold_supply, &clean_cfg, &cache).map_err(|err| {
            (
                ("cache-cold", "optimizer"),
                format!("cold cached compile failed: {err}"),
            )
        })?;
    if cold_hit {
        return Err((
            ("cache-cold", "cache"),
            "first compile reported a hit on an empty cache".into(),
        ));
    }
    if !alpha_eq(&cold_out, &resilient_out) {
        return Err((
            ("cache-cold", "strict"),
            format!(
                "cold cached output diverges from the direct pipeline\ncached:\n{cold_out}\ndirect:\n{resilient_out}"
            ),
        ));
    }
    let mut hit_supply = d.supply.clone();
    let (hit_out, _, hit) = optimize_cached(&e, &d.data_env, &mut hit_supply, &clean_cfg, &cache)
        .map_err(|err| {
        (
            ("cache-hit", "optimizer"),
            format!("warm cached compile failed: {err}"),
        )
    })?;
    if !hit {
        return Err((
            ("cache-hit", "cache"),
            "second compile of an identical term missed the cache".into(),
        ));
    }
    if !alpha_eq(&hit_out, &cold_out) {
        return Err((
            ("cache-hit", "cache-cold"),
            format!("cache hit served a different term\nhit:\n{hit_out}\ncold:\n{cold_out}"),
        ));
    }

    // machine-unopt vs machine-opt: optimization preserves the value.
    let optimized = fj_eval::run_with_limits(
        &strict_out,
        EvalMode::CallByValue,
        cfg.fuel,
        Some(cfg.exec_deadline),
    )
    .map_err(|err| {
        (
            ("machine-unopt", "machine-opt"),
            format!("optimized term failed to run: {err}"),
        )
    })?;
    if optimized.value != reference.value {
        return Err((
            ("machine-unopt", "machine-opt"),
            format!(
                "optimization changed the value: {} before, {} after\noptimized term:\n{strict_out}",
                reference.value, optimized.value
            ),
        ));
    }

    // optimized vs erased: Thm. 5's erasure of the optimized term.
    let erased = erase(&strict_out, &d.data_env, &mut strict_supply)
        .map_err(|err| (("optimized", "erased"), format!("erasure failed: {err}")))?;
    check_erased(cfg, &erased, &d.data_env, &optimized.value)?;

    // machine vs vm: same value, same allocation counters, on the
    // optimized term. The VM's fuel unit is instructions (~10× machine
    // transitions).
    let vm = fj_vm::run_with_limits(
        &strict_out,
        EvalMode::CallByValue,
        cfg.fuel.saturating_mul(10),
        Some(cfg.exec_deadline),
    )
    .map_err(|err| (("machine", "vm"), format!("vm failed to run: {err}")))?;
    if vm.value != optimized.value {
        return Err((
            ("machine", "vm"),
            format!(
                "backends disagree on the value: machine {} vs vm {}",
                optimized.value, vm.value
            ),
        ));
    }
    let (m, v) = (
        optimized.metrics.backend_counters(),
        vm.metrics.backend_counters(),
    );
    if m != v {
        return Err((
            ("machine", "vm"),
            format!("backends disagree on (let, arg, con, jumps): machine {m:?} vs vm {v:?}"),
        ));
    }

    // vm-unfused vs vm-fused: the superinstruction peephole must be
    // invisible — same value, same allocation counters.
    let vm_route = |fuse: bool| {
        let prog = fj_vm::compile_with(
            &strict_out,
            EvalMode::CallByValue,
            fj_vm::CompileOpts { fuse },
        )
        .map_err(|err| {
            (
                ("vm-unfused", "vm-fused"),
                format!("vm compile (fuse={fuse}) failed: {err}"),
            )
        })?;
        fj_vm::run_program_with_limits(&prog, cfg.fuel.saturating_mul(10), Some(cfg.exec_deadline))
            .map_err(|err| {
                (
                    ("vm-unfused", "vm-fused"),
                    format!("vm (fuse={fuse}) failed to run: {err}"),
                )
            })
    };
    let unfused = vm_route(false)?;
    let fused = vm_route(true)?;
    if fused.value != unfused.value {
        return Err((
            ("vm-unfused", "vm-fused"),
            format!(
                "fusion changed the value: unfused {} vs fused {}",
                unfused.value, fused.value
            ),
        ));
    }
    let (u, f) = (
        unfused.metrics.backend_counters(),
        fused.metrics.backend_counters(),
    );
    if u != f {
        return Err((
            ("vm-unfused", "vm-fused"),
            format!("fusion changed (let, arg, con, jumps): unfused {u:?} vs fused {f:?}"),
        ));
    }

    Ok(joins)
}

/// The optimized-vs-erased oracle: `erased` must contain no join point
/// or jump, must lint, and must run by value, under the farm's fuel and
/// deadline, to `expected`, the optimized term's value.
fn check_erased(
    cfg: &FarmConfig,
    erased: &Expr,
    data_env: &DataEnv,
    expected: &Value,
) -> Result<(), (RoutePair, String)> {
    let fail = |msg: String| Err((("optimized", "erased"), format!("{msg}\nerased:\n{erased}")));
    if erased.has_join_or_jump() {
        return fail("erasure left a join or jump behind".into());
    }
    if let Err(err) = fj_check::lint(erased, data_env) {
        return fail(format!("the erased term is ill-typed: {err}"));
    }
    match fj_eval::run_with_limits(
        erased,
        EvalMode::CallByValue,
        cfg.fuel,
        Some(cfg.exec_deadline),
    ) {
        Err(err) => fail(format!("the erased term failed to run: {err}")),
        Ok(out) if out.value != *expected => fail(format!(
            "erasure changed the value: {expected} optimized, {} erased",
            out.value
        )),
        Ok(_) => Ok(()),
    }
}

/// Per-case outcome, before aggregation.
enum CaseOutcome {
    Pass { joins: bool, band: Band },
    Skipped,
    Fail(Box<FarmFailure>),
}

fn run_case(cfg: &FarmConfig, case: u32, farm_start: Instant) -> CaseOutcome {
    if let Some(budget) = cfg.time_budget {
        if farm_start.elapsed() >= budget {
            return CaseOutcome::Skipped;
        }
    }
    let seed = case_seed(cfg.seed, case);
    let (g, band) = gen_case(cfg, case);
    match check_routes(cfg, &g, seed) {
        Ok(joins) => CaseOutcome::Pass { joins, band },
        Err((routes, message)) => {
            // Shrink under the *same-route-pair* predicate: the minimal
            // repro must fail the same cross-check, not just any check.
            let mut fails = |cand: &G| match check_routes(cfg, cand, seed) {
                Err((r, m)) if r == routes => Some(m),
                _ => None,
            };
            let (shrunk, shrunk_message) = shrink(&g, &mut fails, cfg.shrink_budget);
            CaseOutcome::Fail(Box::new(FarmFailure {
                case,
                case_seed: seed,
                routes,
                message,
                original_size: g.size(),
                shrunk,
                shrunk_message,
                repro: None,
            }))
        }
    }
}

/// Run the farm: generate, fan out over the scoped-thread pool, cross-
/// check, shrink failures, write repros.
pub fn run_farm(cfg: &FarmConfig) -> FarmReport {
    let start = Instant::now();
    let outcomes = par_map((0..cfg.cases).collect(), |case| run_case(cfg, case, start));
    let mut report = FarmReport::default();
    for outcome in outcomes {
        match outcome {
            CaseOutcome::Pass { joins, band } => {
                report.cases_run += 1;
                report.join_programs += u32::from(joins);
                report.adversarial_cases += u32::from(band != Band::Plain);
            }
            CaseOutcome::Skipped => report.cases_skipped += 1,
            CaseOutcome::Fail(mut failure) => {
                report.cases_run += 1;
                if let Some(dir) = &cfg.corpus_dir {
                    match write_repro(dir, &failure) {
                        Ok(path) => failure.repro = Some(path),
                        Err(err) => failure
                            .message
                            .push_str(&format!("\n(writing the repro failed: {err})")),
                    }
                }
                report.failures.push(*failure);
            }
        }
    }
    report.elapsed = start.elapsed();
    report
}

/// Write a shrunk failure as a comment-headed corpus file. The
/// `-- gen:` line is authoritative (replayable via [`codec::parse`]);
/// the pretty-printed term below it is for human eyes.
fn write_repro(dir: &Path, failure: &FarmFailure) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{:016x}.fj", failure.case_seed));
    let (_, term) = build_closed(&failure.shrunk);
    let mut content = String::new();
    content.push_str("-- fj fuzz repro (auto-shrunk)\n");
    content.push_str(&format!(
        "-- case-seed: {:#018x} (case {})\n",
        failure.case_seed, failure.case
    ));
    content.push_str(&format!(
        "-- routes: {} vs {}\n",
        failure.routes.0, failure.routes.1
    ));
    for line in failure.shrunk_message.lines().take(1) {
        content.push_str(&format!("-- error: {line}\n"));
    }
    content.push_str(&format!("-- gen: {}\n", codec::to_text(&failure.shrunk)));
    content.push_str("--\n-- shrunk core term:\n");
    for line in term.to_string().lines() {
        content.push_str("--   ");
        content.push_str(line);
        content.push('\n');
    }
    std::fs::write(&path, content)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(cases: u32) -> FarmConfig {
        FarmConfig {
            cases,
            fuel: 2_000_000,
            ..FarmConfig::default()
        }
    }

    #[test]
    fn clean_farm_agrees_on_every_route() {
        let report = run_farm(&quick(48));
        assert!(
            report.ok(),
            "route cross-checks failed: {:?}",
            report
                .failures
                .iter()
                .map(|f| (f.routes, f.message.clone()))
                .collect::<Vec<_>>()
        );
        assert_eq!(report.cases_run, 48);
        assert!(report.join_programs > 0, "no join programs in the sample");
        assert!(report.adversarial_cases > 0, "no adversarial bands ran");
    }

    #[test]
    fn sabotaged_farm_pins_failures_to_the_strict_route() {
        // Corrupt the first pass's output on the strict route only.
        // Every surfaced failure must be pinned to the strict route:
        // either the corrupted output diverges from the clean resilient
        // compile (strict vs resilient) or a later pass of the strict
        // pipeline rejects the corrupted term (strict vs optimizer) —
        // and at least one α-divergence must be observed.
        let dir = std::env::temp_dir().join(format!("fj-farm-test-{}", std::process::id()));
        let cfg = FarmConfig {
            sabotage: Some((Sabotage::SwapCaseAlts, 0)),
            corpus_dir: Some(dir.clone()),
            ..quick(64)
        };
        let report = run_farm(&cfg);
        assert!(
            !report.ok(),
            "the saboteur never surfaced over {} cases",
            report.cases_run
        );
        assert!(
            report
                .failures
                .iter()
                .any(|f| f.routes == ("strict", "resilient")),
            "no strict-vs-resilient divergence among the failures"
        );
        for f in &report.failures {
            assert_eq!(
                f.routes.0, "strict",
                "sabotage surfaced on an unexpected route pair {:?}: {}",
                f.routes, f.message
            );
            let path = f.repro.as_ref().expect("repro file was not written");
            let text = std::fs::read_to_string(path).expect("repro file unreadable");
            assert!(
                text.contains(&format!("-- routes: {} vs {}", f.routes.0, f.routes.1)),
                "repro does not name the failing route pair:\n{text}"
            );
            let gen_line = text
                .lines()
                .find_map(|l| l.strip_prefix("-- gen: "))
                .expect("repro has no -- gen: line");
            let replayed = codec::parse(gen_line).expect("repro gen line does not parse");
            assert_eq!(
                replayed, f.shrunk,
                "repro gen line diverges from the failure"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shrinking_compresses_sabotage_failures() {
        // Shrinker quality bar: every saboteur-seeded failure must
        // shrink to a description that (a) still fails the *same*
        // oracle when replayed from scratch and (b) — for failures
        // that started big enough to have room — is at most a quarter
        // of the original node count.
        let cfg = FarmConfig {
            sabotage: Some((Sabotage::SwapCaseAlts, 0)),
            ..quick(192)
        };
        let report = run_farm(&cfg);
        assert!(
            !report.ok(),
            "the saboteur never surfaced over {} cases",
            report.cases_run
        );
        let mut sizeable = 0;
        for f in &report.failures {
            match check_routes(&cfg, &f.shrunk, f.case_seed) {
                Err((routes, _)) => assert_eq!(
                    routes, f.routes,
                    "replayed shrunk repro fails a different oracle"
                ),
                Ok(_) => panic!(
                    "shrunk repro for case {} no longer fails: {}",
                    f.case, f.shrunk_message
                ),
            }
            // Small originals have no room to shrink 4× — the minimal
            // case-swap repro is already ~6 nodes — so only hold the
            // ratio bar over failures with real structure.
            if f.original_size >= 32 {
                sizeable += 1;
                let shrunk_size = f.shrunk.size();
                assert!(
                    shrunk_size * 4 <= f.original_size,
                    "case {} shrank {} -> {} nodes, worse than 25%",
                    f.case,
                    f.original_size,
                    shrunk_size
                );
            }
        }
        assert!(
            sizeable >= 3,
            "only {sizeable} sizeable failures; the ratio bar was barely exercised"
        );
    }

    #[test]
    fn erased_route_reports_planted_faults() {
        use fj_ast::{Dsl, JoinDef, PrimOp, Type};
        let mut d = Dsl::new();
        let j = d.name("j");
        let expected = Value::Int(3);
        let leftover_jump = Expr::join1(
            JoinDef {
                name: j.clone(),
                ty_params: vec![],
                params: vec![],
                body: Expr::Lit(3),
            },
            Expr::jump(&j, vec![], vec![], Type::Int),
        );
        let ill_typed = Expr::prim2(PrimOp::Add, Expr::Lit(3), Expr::bool(true));
        let wrong_value = Expr::Lit(4);
        for (fault, bad, needle) in [
            ("leftover jump", leftover_jump, "join or jump"),
            ("ill-typed term", ill_typed, "ill-typed"),
            ("wrong value", wrong_value, "changed the value"),
        ] {
            let (routes, message) =
                check_erased(&quick(1), &bad, &d.data_env, &expected).expect_err(fault);
            assert_eq!(routes, ("optimized", "erased"), "{fault}: {message}");
            assert!(message.contains(needle), "{fault}: {message}");
        }
        assert!(check_erased(&quick(1), &Expr::Lit(3), &d.data_env, &expected).is_ok());
    }

    #[test]
    fn time_budget_skips_instead_of_hanging() {
        let cfg = FarmConfig {
            time_budget: Some(Duration::ZERO),
            ..quick(32)
        };
        let report = run_farm(&cfg);
        assert_eq!(report.cases_run + report.cases_skipped, 32);
        assert!(report.cases_skipped > 0, "zero budget skipped nothing");
    }

    #[test]
    fn case_seeds_are_distinct_and_stable() {
        let a: Vec<u64> = (0..16).map(|i| case_seed(1, i)).collect();
        let b: Vec<u64> = (0..16).map(|i| case_seed(1, i)).collect();
        assert_eq!(a, b);
        let mut uniq = a.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), a.len(), "case seeds collide");
    }
}
