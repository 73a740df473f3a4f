//! `compare`: judge a change against its parent from alternating runs.
//!
//! Inputs are two `results.jsonl` files, one per commit, written by runs
//! made in alternating pairs (parent then change, change then parent,
//! ...). The rules:
//!
//! * at least ten alternating pairs per workload;
//! * a claim `METRIC@WORKLOAD` holds when the change wins at least nine
//!   tenths of the pairs (ties count for neither) and the medians differ,
//!   in the better direction, by more than the parent's interquartile
//!   range;
//! * every other end-to-end metric on every workload must not be worse
//!   than the parent's median by more than its bound in `BENCHMARK.json`;
//!   where either side's spread (IQR over median) is wider than the
//!   bound the pairing is *unresolved*, unless every change run beats
//!   every parent run;
//! * a scaled timing is also *unresolved* (and cannot meet a claim) when
//!   the two sides' median host factors differ by more than its bound:
//!   then the scaling, not the code, may explain the difference;
//! * a metric missing, non-finite or zero on either side rejects;
//! * every run must have the same length;
//! * the failure ratio (failed ÷ attempted) may never rise.

use crate::stats::{median, quartiles, relative_iqr};
use fj_server::json::{self, Value};
use std::collections::BTreeMap;

/// One end-to-end metric's rule.
pub struct Rule {
    /// Metric name.
    pub name: String,
    /// Larger values are better.
    pub higher_is_better: bool,
    /// Allowed worsening, as a share of the parent's median.
    pub bound: f64,
}

/// One untraced run.
#[derive(Clone, Debug)]
pub struct Run {
    /// Workload name.
    pub workload: String,
    /// When it finished (orders the runs of both sides).
    pub finished_ms: u64,
    /// Length of its timed window, in seconds.
    pub seconds: f64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
    /// The host factor each scaled metric was divided by.
    pub factors: BTreeMap<String, f64>,
}

fn rules(spec: &Value) -> Result<Vec<Rule>, String> {
    let list = spec
        .get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            Ok(Rule {
                name: m
                    .get("name")
                    .and_then(Value::as_str)
                    .ok_or("metric without name")?
                    .to_string(),
                higher_is_better: m.get("better").and_then(Value::as_str) == Some("higher"),
                bound: m
                    .get("bound")
                    .and_then(Value::as_f64)
                    .ok_or("metric without bound")?,
            })
        })
        .collect()
}

/// Parse the untraced runs of a `results.jsonl` file.
///
/// # Errors
///
/// A line that is not a result record.
pub fn parse_runs(text: &str) -> Result<Vec<Run>, String> {
    let mut runs = Vec::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let v = json::parse(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        if v.get("trace").and_then(Value::as_u64) != Some(0) {
            continue;
        }
        let bad = || format!("line {}: not a result record", n + 1);
        let result = v.get("result").ok_or_else(bad)?;
        let field = |record: Option<&Value>, key: &str| {
            let mut out = BTreeMap::new();
            if let Some(Value::Obj(fields)) = record {
                for (k, m) in fields {
                    if let Some(x) = m.get(key).and_then(Value::as_f64) {
                        out.insert(k.clone(), x);
                    }
                }
            }
            out
        };
        runs.push(Run {
            workload: v
                .get("workload")
                .and_then(Value::as_str)
                .ok_or_else(bad)?
                .to_string(),
            finished_ms: v
                .get("finished_unix_ms")
                .and_then(Value::as_u64)
                .ok_or_else(bad)?,
            seconds: v.get("seconds").and_then(Value::as_f64).ok_or_else(bad)?,
            metrics: field(result.get("metrics"), "value"),
            factors: field(v.get("raw"), "factor"),
            attempted: result
                .get("attempted")
                .and_then(Value::as_u64)
                .ok_or_else(bad)?,
            failed: result
                .get("failed")
                .and_then(Value::as_u64)
                .ok_or_else(bad)?,
        });
    }
    Ok(runs)
}

/// Pair the runs of one workload in time order. Each pair must hold one
/// run of each side, and the side that ran first must alternate.
fn pairs<'a>(parent: &[&'a Run], change: &[&'a Run]) -> Result<Vec<(&'a Run, &'a Run)>, String> {
    let mut all: Vec<(u64, bool, &Run)> = parent
        .iter()
        .map(|r| (r.finished_ms, false, *r))
        .chain(change.iter().map(|r| (r.finished_ms, true, *r)))
        .collect();
    all.sort_by_key(|(t, _, _)| *t);
    let mut out = Vec::new();
    let mut last_first: Option<bool> = None;
    for chunk in all.chunks_exact(2) {
        let ((_, a_change, a), (_, b_change, b)) = (chunk[0], chunk[1]);
        if a_change == b_change {
            return Err(
                "two runs of the same side are adjacent: runs must come in pairs".to_string(),
            );
        }
        if last_first == Some(a_change) {
            return Err("the side that runs first must alternate from pair to pair".to_string());
        }
        last_first = Some(a_change);
        out.push(if a_change { (b, a) } else { (a, b) });
    }
    Ok(out)
}

fn of_workload<'a>(runs: &'a [Run], w: &str) -> Vec<&'a Run> {
    runs.iter().filter(|r| r.workload == w).collect()
}

fn side_of<'a>(pair: &(&'a Run, &'a Run), change: bool) -> &'a Run {
    if change {
        pair.1
    } else {
        pair.0
    }
}

/// The verdict: report lines, and whether the change is acceptable.
pub fn compare(
    rules: &[Rule],
    parent: &[Run],
    change: &[Run],
    claim: Option<(&str, &str)>,
) -> (Vec<String>, bool) {
    let mut lines = Vec::new();
    let mut ok = true;
    let mut workloads: Vec<&str> = parent
        .iter()
        .chain(change)
        .map(|r| r.workload.as_str())
        .collect();
    workloads.sort_unstable();
    workloads.dedup();
    let mut claim_seen = claim.is_none();
    let mut lengths: Vec<f64> = parent.iter().chain(change).map(|r| r.seconds).collect();
    lengths.sort_by(f64::total_cmp);
    lengths.dedup();
    if lengths.len() > 1 {
        lines.push(format!(
            "runs of different lengths {lengths:?} s: every run must measure for the same time"
        ));
        return (lines, false);
    }
    for w in workloads {
        let paired = match pairs(&of_workload(parent, w), &of_workload(change, w)) {
            Ok(p) => p,
            Err(e) => {
                lines.push(format!("{w}: {e}"));
                ok = false;
                continue;
            }
        };
        if paired.len() < 10 {
            lines.push(format!(
                "{w}: {} alternating pairs, at least 10 needed",
                paired.len()
            ));
            ok = false;
            continue;
        }
        let fail_ratio = |change: bool| {
            let (f, a) = paired
                .iter()
                .map(|p| side_of(p, change))
                .fold((0, 0), |(f, a), r| (f + r.failed, a + r.attempted));
            f as f64 / a.max(1) as f64
        };
        let (fp, fc) = (fail_ratio(false), fail_ratio(true));
        if fc > fp {
            lines.push(format!("{w} fail_ratio: REGRESSION {fp:.6} -> {fc:.6}"));
            ok = false;
        }
        for rule in rules {
            let values = |change: bool| {
                paired
                    .iter()
                    .map(|p| {
                        side_of(p, change)
                            .metrics
                            .get(&rule.name)
                            .copied()
                            .unwrap_or(f64::NAN)
                    })
                    .collect::<Vec<f64>>()
            };
            let (pv, cv) = (values(false), values(true));
            let is_claim = claim == Some((rule.name.as_str(), w));
            claim_seen |= is_claim;
            if pv.iter().chain(&cv).any(|v| !v.is_finite() || *v == 0.0) {
                ok = false;
                lines.push(format!(
                    "{w:<13} {:<17} MISSING: absent, non-finite or zero in some run",
                    rule.name
                ));
                continue;
            }
            let better = |c: f64, p: f64| if rule.higher_is_better { c > p } else { c < p };
            let (pq1, pm, pq3) = quartiles(&pv);
            let (cq1, cm, cq3) = quartiles(&cv);
            let worse_by = if rule.higher_is_better {
                (pm - cm) / pm.abs()
            } else {
                (cm - pm) / pm.abs()
            };
            let spread = relative_iqr(&pv).max(relative_iqr(&cv));
            let all_better = cv.iter().all(|&c| pv.iter().all(|&p| better(c, p)));
            let factor = |change: bool| {
                let f: Vec<f64> = paired
                    .iter()
                    .filter_map(|p| side_of(p, change).factors.get(&rule.name).copied())
                    .collect();
                (!f.is_empty()).then(|| median(&f))
            };
            let host_gap = match (factor(false), factor(true)) {
                (Some(fp), Some(fc)) => (fc - fp).abs() / fp,
                _ => 0.0,
            };
            let host_differs = host_gap > rule.bound;
            let host_note = format!(
                "host factors differ by {host_gap:.3} > bound {}",
                rule.bound
            );
            let status = if is_claim {
                let wins = cv.iter().zip(&pv).filter(|(&c, &p)| better(c, p)).count();
                let apart = better(cm, pm) && (cm - pm).abs() > pq3 - pq1;
                let met = wins * 10 >= paired.len() * 9 && apart && !host_differs;
                ok &= met;
                format!(
                    "CLAIM {}: change won {wins}/{} pairs; medians {} by more than the parent's IQR {:.4}{}",
                    if met { "MET" } else { "NOT MET" },
                    paired.len(),
                    if apart { "differ" } else { "do not differ" },
                    pq3 - pq1,
                    if host_differs { format!("; {host_note}") } else { String::new() }
                )
            } else if spread > rule.bound && !all_better {
                format!("unresolved (spread {spread:.3} > bound {})", rule.bound)
            } else if host_differs {
                format!("unresolved ({host_note})")
            } else if worse_by > rule.bound {
                ok = false;
                format!("REGRESSION (worse by {worse_by:.3} > bound {})", rule.bound)
            } else {
                "ok".to_string()
            };
            lines.push(format!(
                "{w:<13} {:<17} parent {pq1:.4}/{pm:.4}/{pq3:.4}  change {cq1:.4}/{cm:.4}/{cq3:.4}  {status}",
                rule.name
            ));
        }
    }
    if !claim_seen {
        lines.push("the claimed metric@workload was not found in the results".to_string());
        ok = false;
    }
    (lines, ok)
}

/// `compare PARENT.jsonl CHANGE.jsonl [--claim METRIC@WORKLOAD]`, run
/// from the repository root (it reads `BENCHMARK.json` there).
pub fn main(args: &[String]) -> i32 {
    let (files, claim): (Vec<&String>, Option<&String>) = match args {
        [p, c] => (vec![p, c], None),
        [p, c, flag, m] if flag == "--claim" => (vec![p, c], Some(m)),
        _ => {
            eprintln!(
                "usage: fj-benchmark compare PARENT.jsonl CHANGE.jsonl [--claim METRIC@WORKLOAD]"
            );
            return 2;
        }
    };
    let claim = match claim.map(|c| c.split_once('@')) {
        None => None,
        Some(Some(pair)) => Some(pair),
        Some(None) => {
            eprintln!("fj-benchmark compare: --claim takes METRIC@WORKLOAD");
            return 2;
        }
    };
    let load = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    let inputs = (|| {
        let spec =
            json::parse(&load("BENCHMARK.json")?).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        Ok::<_, String>((
            rules(&spec)?,
            parse_runs(&load(files[0])?)?,
            parse_runs(&load(files[1])?)?,
        ))
    })();
    match inputs {
        Ok((rules, parent, change)) => {
            let (lines, ok) = compare(&rules, &parent, &change, claim);
            println!(
                "workload      metric            parent q1/median/q3  change q1/median/q3  verdict"
            );
            for l in lines {
                println!("{l}");
            }
            println!("{}", if ok { "ACCEPT" } else { "REJECT" });
            i32::from(!ok)
        }
        Err(e) => {
            eprintln!("fj-benchmark compare: {e}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule() -> Vec<Rule> {
        vec![Rule {
            name: "latency_us_p50".to_string(),
            higher_is_better: false,
            bound: 0.1,
        }]
    }

    /// Ten alternating pairs; `change(i)` gives the change's value in pair i.
    fn runs(parent: impl Fn(u64) -> f64, change: impl Fn(u64) -> f64) -> (Vec<Run>, Vec<Run>) {
        let run = |t: u64, v: f64| Run {
            workload: "compile-cold".to_string(),
            finished_ms: t,
            seconds: 20.0,
            attempted: 100,
            failed: 0,
            metrics: [("latency_us_p50".to_string(), v)].into_iter().collect(),
            factors: [("latency_us_p50".to_string(), 1.0)].into_iter().collect(),
        };
        let (mut p, mut c) = (Vec::new(), Vec::new());
        for i in 0..10 {
            let (tp, tc) = if i % 2 == 0 {
                (4 * i, 4 * i + 1)
            } else {
                (4 * i + 1, 4 * i)
            };
            p.push(run(tp, parent(i)));
            c.push(run(tc, change(i)));
        }
        (p, c)
    }

    const CLAIM: Option<(&str, &str)> = Some(("latency_us_p50", "compile-cold"));

    #[test]
    fn a_clear_win_meets_its_claim() {
        let (p, c) = runs(|i| 100.0 + i as f64 % 3.0, |i| 80.0 + i as f64 % 3.0);
        let (lines, ok) = compare(&rule(), &p, &c, CLAIM);
        assert!(ok, "{lines:?}");
        assert!(lines[0].contains("CLAIM MET"), "{lines:?}");
    }

    #[test]
    fn eight_wins_in_ten_do_not_meet_a_claim() {
        let (p, c) = runs(|_| 100.0, |i| if i < 8 { 80.0 } else { 120.0 });
        let (lines, ok) = compare(&rule(), &p, &c, CLAIM);
        assert!(!ok);
        assert!(lines[0].contains("NOT MET"), "{lines:?}");
    }

    #[test]
    fn medians_inside_the_parent_spread_do_not_meet_a_claim() {
        // The change wins every pair, but by less than the parent's IQR.
        let (p, c) = runs(
            |i| 100.0 + 10.0 * (i % 4) as f64,
            |i| 99.0 + 10.0 * (i % 4) as f64,
        );
        let (lines, ok) = compare(&rule(), &p, &c, CLAIM);
        assert!(!ok, "{lines:?}");
    }

    #[test]
    fn a_slowdown_beyond_the_bound_is_a_regression() {
        let (p, c) = runs(|_| 100.0, |_| 115.0);
        let (lines, ok) = compare(&rule(), &p, &c, None);
        assert!(!ok);
        assert!(lines[0].contains("REGRESSION"), "{lines:?}");
        let (_, ok) = compare(&rule(), &p, &runs(|_| 0.0, |_| 105.0).1, None);
        assert!(ok, "within the bound");
    }

    #[test]
    fn a_wide_spread_is_unresolved_unless_every_change_run_is_better() {
        let (p, c) = runs(
            |i| if i % 2 == 0 { 60.0 } else { 140.0 },
            |i| if i % 2 == 0 { 70.0 } else { 150.0 },
        );
        let (lines, ok) = compare(&rule(), &p, &c, None);
        assert!(ok);
        assert!(lines[0].contains("unresolved"), "{lines:?}");
        let (p, c) = runs(
            |i| if i % 2 == 0 { 160.0 } else { 240.0 },
            |i| if i % 2 == 0 { 50.0 } else { 150.0 },
        );
        let (lines, _) = compare(&rule(), &p, &c, None);
        assert!(lines[0].ends_with("ok"), "{lines:?}");
    }

    #[test]
    fn a_rising_failure_ratio_rejects() {
        let (p, mut c) = runs(|_| 100.0, |_| 100.0);
        c[3].failed = 1;
        let (lines, ok) = compare(&rule(), &p, &c, None);
        assert!(!ok);
        assert!(lines[0].contains("fail_ratio"), "{lines:?}");
    }

    #[test]
    fn a_missing_or_zero_metric_rejects() {
        let (p, mut c) = runs(|_| 100.0, |_| 100.0);
        c[4].metrics.clear();
        let (lines, ok) = compare(&rule(), &p, &c, None);
        assert!(!ok);
        assert!(lines[0].contains("MISSING"), "{lines:?}");
        let (p, c) = runs(|_| 0.0, |_| 100.0);
        let (lines, ok) = compare(&rule(), &p, &c, None);
        assert!(!ok, "{lines:?}");
    }

    #[test]
    fn runs_of_different_lengths_reject() {
        let (p, mut c) = runs(|_| 100.0, |_| 100.0);
        c[0].seconds = 1.0;
        let (lines, ok) = compare(&rule(), &p, &c, None);
        assert!(!ok);
        assert!(lines[0].contains("different lengths"), "{lines:?}");
    }

    #[test]
    fn diverging_host_factors_leave_a_timing_unresolved() {
        // The change reads 15% slower, but its host ran 20% slower too.
        let (p, mut c) = runs(|_| 100.0, |_| 115.0);
        for r in &mut c {
            r.factors.insert("latency_us_p50".to_string(), 1.2);
        }
        let (lines, ok) = compare(&rule(), &p, &c, None);
        assert!(ok, "{lines:?}");
        assert!(lines[0].contains("unresolved (host factors"), "{lines:?}");
        // Nor can such a pairing meet a claim.
        let (p, mut c) = runs(|_| 100.0, |_| 80.0);
        for r in &mut c {
            r.factors.insert("latency_us_p50".to_string(), 0.8);
        }
        let (lines, ok) = compare(&rule(), &p, &c, CLAIM);
        assert!(!ok);
        assert!(lines[0].contains("NOT MET"), "{lines:?}");
    }

    #[test]
    fn pairs_must_alternate_and_number_ten() {
        let (p, mut c) = runs(|_| 100.0, |_| 100.0);
        // Make the change run second in every pair.
        for (i, r) in c.iter_mut().enumerate() {
            r.finished_ms = 4 * i as u64 + 2;
        }
        let p: Vec<Run> = p
            .into_iter()
            .enumerate()
            .map(|(i, mut r)| {
                r.finished_ms = 4 * i as u64;
                r
            })
            .collect();
        let (lines, ok) = compare(&rule(), &p, &c, None);
        assert!(!ok);
        assert!(lines[0].contains("alternate"), "{lines:?}");
        let (p, c) = runs(|_| 100.0, |_| 100.0);
        let (lines, ok) = compare(&rule(), &p[..8], &c[..8], None);
        assert!(!ok);
        assert!(lines[0].contains("at least 10"), "{lines:?}");
    }
}
