//! `fj-benchmark`: the repository's one benchmark.
//!
//! ```text
//! fj-benchmark --workload W [--seed N] [--seconds 20] [--trace 0|1] [--smoke]
//!              [--fj PATH] [--out DIR]
//! fj-benchmark compare PARENT.jsonl CHANGE.jsonl [--claim METRIC@WORKLOAD]
//! ```
//!
//! A run sets up three times (the median is `setup_s`), measures one
//! workload for `run_seconds` (1 s with `--smoke`; `--seconds` may only
//! repeat the fixed length), checks every output against references that
//! do not come from the compiler, prints a human-readable report, and
//! ends with one JSON line: `correct`, `attempted`, `failed` and the
//! metrics (end-to-end with `--trace 0`, per-layer with `--trace 1`). It
//! exits 1 when any check failed and 2 on a usage or set-up error. Each
//! run also appends its result to `<out>/results.jsonl`, the input of
//! `compare`. See `README.md` for the workloads and metrics.

mod calibrate;
mod compare;
mod compile_cold;
mod metrics;
mod oracle;
mod restart_warm;
mod run_vm;
mod serve_mixed;
mod stats;
mod trace;

use calibrate::Calibrator;
use fj_server::json::Value;
use fj_testkit::SplitMix64;
use oracle::{Checks, Oracle};
use stats::{median, Latency, Sample};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Length of a `--smoke` run's timed window, in seconds.
const SMOKE_SECONDS: f64 = 1.0;

/// The four workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    CompileCold,
    RunVm,
    ServeMixed,
    RestartWarm,
}

impl Workload {
    /// In `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::CompileCold,
        Workload::RunVm,
        Workload::ServeMixed,
        Workload::RestartWarm,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CompileCold => "compile-cold",
            Workload::RunVm => "run-vm",
            Workload::ServeMixed => "serve-mixed",
            Workload::RestartWarm => "restart-warm",
        }
    }

    fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// The settings of one run.
pub struct Ctx {
    /// Seed of everything generated: program order, request classes,
    /// arrival times, comment text and nonces.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// Record spans for every other timed operation.
    pub trace: bool,
    /// The `fj` binary, for `serve-mixed`.
    pub fj: Option<PathBuf>,
    /// Working directory of this run, removed at exit.
    pub work: PathBuf,
}

/// What a workload's timed window produced.
#[derive(Default)]
pub struct Measured {
    /// Untraced operations of the timed window (the open-loop phase, for
    /// `serve-mixed`).
    pub untraced: Vec<Sample>,
    /// Length of that window, in seconds.
    pub window_s: f64,
    /// Calibration kernel timings taken during that window.
    pub kernel: Vec<(f64, f64)>,
    /// Report the window's p99 unscaled (see [`serve_mixed`]).
    pub raw_tail: bool,
    /// Operations completed in a separate closed-loop throughput phase,
    /// if any (its rate is not scaled: see [`serve_mixed`]).
    pub closed_ops: u64,
    /// Length of that phase, in seconds.
    pub closed_s: f64,
    /// Latency of traced operations, in µs.
    pub traced_us: Vec<f64>,
    /// Operations attempted.
    pub ops: u64,
    /// Output checks, set-up included.
    pub checks: Checks,
    /// Σ node count of the 29 optimized programs the workload produced.
    pub code_size_total: u64,
    /// Σ allocation units of those programs, call-by-value.
    pub allocs_total: u64,
    /// Peak resident set of the process under test after a fixed amount
    /// of work, in MiB.
    pub peak_rss_mb: f64,
    /// Per-layer values computed by the workload itself.
    pub extras: Vec<(&'static str, f64)>,
    /// Human-readable detail rows.
    pub detail: Vec<String>,
    /// Spans recorded on threads other than the main one.
    pub spans: Vec<trace::Span>,
}

impl Measured {
    /// Record one operation, started `at` into the window.
    pub fn latency(&mut self, traced: bool, at: Duration, took: Duration) {
        let us = took.as_secs_f64() * 1e6;
        if traced {
            self.traced_us.push(us);
        } else {
            self.untraced.push(Sample {
                t: at.as_secs_f64(),
                us,
            });
        }
    }

    /// Read this process's peak resident set once `ops` operations are
    /// done, so the reading does not depend on how fast they went.
    pub fn rss_after(&mut self, ops: u64) {
        if self.ops == ops {
            self.peak_rss_mb = peak_rss_mb("self");
        }
    }
}

/// A seeded permutation of `0..n` (Fisher–Yates).
pub fn permutation(rng: &mut SplitMix64, n: usize) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, rng.below(i as u64 + 1) as usize);
    }
    v
}

/// Peak resident set of a process (`self` or a pid), in MiB (`VmHWM`).
pub fn peak_rss_mb(pid: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Args {
    workload: Workload,
    ctx: Ctx,
    out: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = metrics::RUN_SECONDS;
    let mut trace = false;
    let mut fj = None;
    let mut out = PathBuf::from("benchmark/out");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                workload = Some(Workload::parse(w).ok_or(format!("unknown workload {w}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            // Accepted so that a caller can pass BENCHMARK.json's
            // run_seconds back, but the run length is fixed: runs of
            // different lengths do not compare.
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if s != metrics::RUN_SECONDS {
                    return Err(format!(
                        "--seconds must be {} (run_seconds in BENCHMARK.json); use --smoke for a short run",
                        metrics::RUN_SECONDS
                    ));
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--smoke" => seconds = SMOKE_SECONDS,
            "--fj" => fj = Some(PathBuf::from(value()?)),
            "--out" => out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let work = out.join(format!("{}-{}", workload.name(), std::process::id()));
    Ok(Args {
        workload,
        ctx: Ctx {
            seed,
            seconds,
            trace,
            fj,
            work,
        },
        out,
    })
}

/// One set-up: its raw duration in seconds and the host's speed factor
/// while it ran.
type SetupTime = (f64, f64);

/// Set up [`SETUPS`] times, keeping the last set-up, then measure.
/// Returns the set-up times, the oracle, and the measurement.
fn execute(
    workload: Workload,
    ctx: &Ctx,
    started: Instant,
) -> Result<(Vec<SetupTime>, Oracle, Measured), String> {
    trace::set_on(ctx.trace);
    trace::begin_op(0);
    let mut m = Measured::default();
    let mut setups = Vec::new();
    let mut kept = None;
    for rep in 0..SETUPS {
        let t0 = if rep == 0 { started } else { Instant::now() };
        let mut clock = Calibrator::new(t0);
        let dir = ctx.work.join(format!("setup{rep}"));
        let oracle = Oracle::build(&dir.join("store"), &mut m.checks, &mut clock)?;
        let server = match workload {
            Workload::ServeMixed => Some(serve_mixed::setup(ctx, &oracle, &dir, &mut m.checks)?),
            _ => None,
        };
        setups.push((t0.elapsed().as_secs_f64(), clock.factor()));
        // Dropping the previous set-up stops its server, if any.
        kept = Some((oracle, server));
    }
    trace::set_on(false);
    let (oracle, server) = kept.expect("SETUPS > 0");
    match (workload, server) {
        (Workload::CompileCold, _) => compile_cold::measure(ctx, &oracle, &mut m),
        (Workload::RunVm, _) => run_vm::measure(ctx, &oracle, &mut m),
        (Workload::RestartWarm, _) => restart_warm::measure(ctx, &oracle, &mut m),
        (Workload::ServeMixed, Some(server)) => serve_mixed::measure(ctx, &oracle, server, &mut m),
        (Workload::ServeMixed, None) => unreachable!("serve-mixed always sets up a server"),
    }
    if m.peak_rss_mb == 0.0 {
        // The window was too short to reach the fixed amount of work.
        m.peak_rss_mb = peak_rss_mb("self");
    }
    Ok((setups, oracle, m))
}

/// One end-to-end metric as reported, with its sample basis.
struct Reported {
    name: &'static str,
    /// The value; a scaled timing at nominal host speed.
    value: f64,
    /// For a scaled timing: the raw value and the host factor.
    scaled: Option<(f64, f64)>,
    basis: String,
}

/// The end-to-end metrics of an untraced run. Timings are scaled to
/// nominal host speed (see [`calibrate`]) unless the workload says not.
fn end_to_end(setups: &[SetupTime], m: &Measured) -> Vec<Reported> {
    let row = |name, value, scaled, basis: String| Reported {
        name,
        value,
        scaled,
        basis,
    };
    let raw_setup: Vec<f64> = setups.iter().map(|s| s.0).collect();
    let scaled_setup: Vec<f64> = setups.iter().map(|(raw, factor)| raw / factor).collect();
    let setup_factor = median(&setups.iter().map(|s| s.1).collect::<Vec<_>>());
    let window = calibrate::scale(&m.untraced, &m.kernel, m.window_s);
    let lat = Latency::of(&window.latencies);
    let raw = Latency::of(&m.untraced.iter().map(|s| s.us).collect::<Vec<_>>());
    let basis = format!("n={}, host factor {:.3}", lat.n, window.factor);
    let p99 = if m.raw_tail {
        row("latency_us_p99", raw.p99, None, format!("n={}", raw.n))
    } else {
        row(
            "latency_us_p99",
            lat.p99,
            Some((raw.p99, window.factor)),
            basis.clone(),
        )
    };
    let throughput = if m.closed_ops == 0 {
        let ops = m.untraced.len() as f64;
        row(
            "throughput_per_s",
            ops / window.seconds,
            Some((ops / m.window_s, window.factor)),
            format!("{ops} ops, host factor {:.3}", window.factor),
        )
    } else {
        row(
            "throughput_per_s",
            m.closed_ops as f64 / m.closed_s,
            None,
            format!("{} ops in {:.2} s", m.closed_ops, m.closed_s),
        )
    };
    vec![
        row(
            "setup_s",
            median(&scaled_setup),
            Some((median(&raw_setup), setup_factor)),
            format!("median of {} set-ups", setups.len()),
        ),
        row(
            "latency_us_p50",
            lat.p50,
            Some((raw.p50, window.factor)),
            basis,
        ),
        p99,
        throughput,
        row(
            "peak_rss_mb",
            m.peak_rss_mb,
            None,
            "VmHWM after a fixed amount of work".to_string(),
        ),
        row(
            "code_size_total",
            m.code_size_total as f64,
            None,
            "29 programs".to_string(),
        ),
        row(
            "allocs_total",
            m.allocs_total as f64,
            None,
            "29 programs".to_string(),
        ),
    ]
}

fn unit_of(name: &str) -> &'static str {
    metrics::END_TO_END
        .iter()
        .map(|d| (d.name, d.unit))
        .chain(metrics::PER_LAYER.iter().map(|d| (d.name, d.unit)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

/// The result line: `correct`, `attempted`, `failed`, `metrics`.
fn result_json(attempted: u64, failed: u64, values: &[(&'static str, f64)]) -> Value {
    let metrics = values
        .iter()
        .map(|(name, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            (
                (*name).to_string(),
                Value::obj([
                    ("value", Value::Num(v)),
                    ("unit", Value::str(unit_of(name))),
                ]),
            )
        })
        .collect();
    Value::obj([
        ("correct", Value::Bool(failed == 0)),
        ("attempted", Value::num(attempted)),
        ("failed", Value::num(failed)),
        ("metrics", Value::Obj(metrics)),
    ])
}

/// What a run reports: the result line, the raw values and host factors
/// of its scaled metrics, and the exit code.
struct Outcome {
    result: Value,
    raw: Value,
    code: i32,
}

/// Print the report and return the outcome.
fn report(
    workload: Workload,
    ctx: &Ctx,
    setups: &[SetupTime],
    oracle: &Oracle,
    mut m: Measured,
) -> Outcome {
    println!(
        "fj-benchmark {} seed={} seconds={} trace={}",
        workload.name(),
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace)
    );
    for line in &m.detail {
        println!("  {line}");
    }
    let attempted = m.ops + oracle.checked * SETUPS as u64;
    let mut raw = Vec::new();
    let values: Vec<(&'static str, f64)> = if ctx.trace {
        let mut spans = std::mem::take(&mut m.spans);
        trace::merge(&mut spans, trace::take());
        let path = ctx
            .work
            .with_file_name(format!("{}.trace.jsonl", workload.name()));
        if let Err(e) = trace::write_jsonl(&path, &spans) {
            eprintln!("fj-benchmark: cannot write {}: {e}", path.display());
        }
        let layers = metrics::per_layer(&spans, oracle, &m, setups.len());
        println!(
            "  {:<34} {:>14} {:<9} {:<7} {:<30} moves",
            "per-layer metric", "value", "unit", "better", "basis"
        );
        let values: Vec<(&'static str, f64)> = metrics::PER_LAYER
            .iter()
            .map(|d| {
                let (value, basis) = layers
                    .get(d.name)
                    .map_or((0.0, ""), |l| (l.value, l.basis.as_str()));
                println!(
                    "  {:<34} {value:>14.4} {:<9} {:<7} {basis:<30} {}",
                    d.name, d.unit, d.better, d.moves
                );
                (d.name, value)
            })
            .collect();
        let traced = Latency::of(&m.traced_us);
        let untraced = Latency::of(&m.untraced.iter().map(|s| s.us).collect::<Vec<_>>());
        println!(
            "  tracing overhead (traced minus untraced ops): latency_us_p50 {:+.2} ({:.2} vs {:.2}), \
             latency_us_p99 {:+.2} ({:.2} vs {:.2}); spans written to {}",
            traced.p50 - untraced.p50,
            traced.p50,
            untraced.p50,
            traced.p99 - untraced.p99,
            traced.p99,
            untraced.p99,
            path.display()
        );
        values
    } else {
        let e2e = end_to_end(setups, &m);
        println!(
            "  {:<18} {:>12} {:>12} {:<7} {:<7} {:<6} samples",
            "metric", "value", "raw", "unit", "better", "bound"
        );
        for (r, d) in e2e.iter().zip(metrics::END_TO_END) {
            let raw_text = r.scaled.map_or(String::new(), |(v, _)| format!("{v:.4}"));
            println!(
                "  {:<18} {:>12.4} {raw_text:>12} {:<7} {:<7} {:<6} {}",
                r.name, r.value, d.unit, d.better, d.bound, r.basis
            );
            if let Some((value, factor)) = r.scaled {
                raw.push((
                    r.name.to_string(),
                    Value::obj([("value", Value::Num(value)), ("factor", Value::Num(factor))]),
                ));
            }
            // Every end-to-end metric is a positive number on a healthy
            // run; anything else is a broken measurement.
            m.checks.expect(r.value.is_finite() && r.value > 0.0, || {
                format!("{} measured {}", r.name, r.value)
            });
        }
        e2e.into_iter().map(|r| (r.name, r.value)).collect()
    };
    for msg in &m.checks.messages {
        println!("  FAILED: {msg}");
    }
    let failed = m.checks.failed;
    Outcome {
        result: result_json(attempted, failed, &values),
        raw: Value::Obj(raw),
        code: i32::from(failed > 0),
    }
}

fn append_result(out: &Path, workload: Workload, ctx: &Ctx, outcome: &Outcome) {
    let finished_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis() as u64);
    let line = Value::obj([
        ("workload", Value::str(workload.name())),
        ("seed", Value::num(ctx.seed)),
        ("trace", Value::num(u64::from(ctx.trace))),
        ("seconds", Value::Num(ctx.seconds)),
        ("finished_unix_ms", Value::num(finished_ms)),
        ("result", outcome.result.clone()),
        ("raw", outcome.raw.clone()),
    ]);
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(out.join("results.jsonl"))
        .and_then(|mut f| writeln!(f, "{line}"));
    if let Err(e) = appended {
        eprintln!("fj-benchmark: cannot append to results.jsonl: {e}");
    }
}

fn run_main(args: &[String], started: Instant) -> i32 {
    let args = match parse_args(args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fj-benchmark: {e}");
            return 2;
        }
    };
    let _ = std::fs::remove_dir_all(&args.ctx.work);
    if let Err(e) = std::fs::create_dir_all(&args.ctx.work) {
        eprintln!(
            "fj-benchmark: cannot create {}: {e}",
            args.ctx.work.display()
        );
        return 2;
    }
    let code = match execute(args.workload, &args.ctx, started) {
        Ok((setups, oracle, m)) => {
            let outcome = report(args.workload, &args.ctx, &setups, &oracle, m);
            append_result(&args.out, args.workload, &args.ctx, &outcome);
            println!("{}", outcome.result);
            outcome.code
        }
        Err(e) => {
            eprintln!("fj-benchmark: {}: {e}", args.workload.name());
            2
        }
    };
    let _ = std::fs::remove_dir_all(&args.ctx.work);
    code
}

fn main() {
    let started = trace::epoch();
    // The allocator switches for good to a slower locking mode once a
    // second thread has existed. Switch now, before anything is measured,
    // so the code under test and the calibration kernel run in that mode
    // whether or not the code under test starts threads of its own.
    std::thread::spawn(|| {})
        .join()
        .expect("an empty thread does not panic");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("compare") => compare::main(&args[1..]),
        _ => run_main(&args, started),
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutations_are_seeded_and_complete() {
        let a = permutation(&mut SplitMix64::new(5), 29);
        let b = permutation(&mut SplitMix64::new(5), 29);
        let c = permutation(&mut SplitMix64::new(6), 29);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..29).collect::<Vec<_>>());
    }

    /// A correct reference passes; a wrong one fails the run's checks and
    /// so the command's exit status.
    #[test]
    fn a_wrong_reference_makes_the_command_fail() {
        let ctx = Ctx {
            seed: 3,
            seconds: 0.2,
            trace: false,
            fj: None,
            work: Path::new(env!("CARGO_MANIFEST_DIR")).join("out/test-wrong-reference"),
        };
        let mut checks = Checks::default();
        let mut clock = Calibrator::new(Instant::now());
        let mut oracle =
            Oracle::build(&ctx.work.join("store"), &mut checks, &mut clock).expect("oracle builds");
        assert_eq!(checks.failed, 0, "{:?}", checks.messages);
        let mut m = Measured::default();
        run_vm::measure(&ctx, &oracle, &mut m);
        // Too short a window to reach the operation count memory is read at.
        m.peak_rss_mb = peak_rss_mb("self");
        let out = report(Workload::RunVm, &ctx, &[(0.1, 1.0)], &oracle, m);
        assert_eq!(
            (out.code, out.result.get("failed").and_then(Value::as_u64)),
            (0, Some(0))
        );
        assert!(out.raw.get("latency_us_p50").is_some());

        // A run that measured nothing reports zeros, and fails.
        let out = report(
            Workload::RunVm,
            &ctx,
            &[(0.1, 1.0)],
            &oracle,
            Measured::default(),
        );
        assert_eq!(out.code, 1);

        oracle.refs[0].value += 1;
        let mut m = Measured::default();
        run_vm::measure(&ctx, &oracle, &mut m);
        assert!(m.checks.failed > 0);
        let out = report(Workload::RunVm, &ctx, &[(0.1, 1.0)], &oracle, m);
        assert_eq!(out.code, 1);
        assert_eq!(
            out.result.get("correct").and_then(Value::as_bool),
            Some(false)
        );
        let _ = std::fs::remove_dir_all(&ctx.work);
    }

    #[test]
    fn the_run_length_is_fixed() {
        let args = |extra: &[&str]| {
            let mut v = vec!["--workload".to_string(), "run-vm".to_string()];
            v.extend(extra.iter().map(|s| s.to_string()));
            parse_args(&v).map(|a| a.ctx.seconds)
        };
        assert_eq!(args(&[]), Ok(metrics::RUN_SECONDS));
        let fixed = metrics::RUN_SECONDS.to_string();
        assert_eq!(args(&["--seconds", &fixed]), Ok(metrics::RUN_SECONDS));
        assert!(args(&["--seconds", "5"]).is_err());
        assert_eq!(args(&["--smoke"]), Ok(SMOKE_SECONDS));
    }
}
