//! Debug probe: dump a benchmark's optimized forms and metrics.
fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "para".into());
    let p = fj_nofib::programs()
        .into_iter()
        .find(|p| p.name == name)
        .expect("program");
    for (label, cfg) in [
        ("baseline", fj_core::OptConfig::baseline()),
        ("join-points", fj_core::OptConfig::join_points()),
    ] {
        let mut lowered = fj_surface::compile(p.source).unwrap();
        let (out, _) = fj_core::optimize_with_report(
            &lowered.expr,
            &lowered.data_env,
            &mut lowered.supply,
            &cfg,
        )
        .unwrap();
        let o = fj_eval::run(&out, fj_eval::EvalMode::CallByValue, 50_000_000).unwrap();
        println!("=== {label}: {}\n{out}\n", o.metrics);
    }
}
