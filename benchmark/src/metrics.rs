//! The benchmark's metrics: their definitions (mirrored in the
//! repository's `BENCHMARK.json`, which a test keeps in sync) and how each
//! is computed from a run.

use crate::oracle::Oracle;
use crate::stats::{mean, ratio, Latency};
use crate::trace::{self, Span};
use crate::Measured;
use std::collections::HashMap;

/// An end-to-end metric: what a user of the system sees.
pub struct EndToEnd {
    /// Name in the result line.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// Length of every run's timed window, in seconds (`run_seconds`).
pub const RUN_SECONDS: f64 = 20.0;

/// Every end-to-end metric, reported on every workload from untraced
/// operations. A bound wider than 0.1 is what `serve-mixed` needs: see
/// `README.md`.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_us_p50",
        unit: "us",
        better: "lower",
        bound: 0.1,
    },
    EndToEnd {
        name: "latency_us_p99",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "throughput_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.1,
    },
    EndToEnd {
        name: "code_size_total",
        unit: "nodes",
        better: "lower",
        bound: 0.01,
    },
    EndToEnd {
        name: "allocs_total",
        unit: "allocs",
        better: "lower",
        bound: 0.01,
    },
];

/// A per-layer metric from the traced run, with the end-to-end metric
/// (and workload) it should move.
pub struct PerLayer {
    /// Name in the result line.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// `metric@workload` pairs this layer metric feeds.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

const CC: &str = "latency_us_p50@compile-cold, throughput_per_s@compile-cold";
const RV: &str = "latency_us_p50@run-vm, latency_us_p99@run-vm";
const RW: &str = "latency_us_p50@restart-warm, latency_us_p99@restart-warm";
const SM: &str = "latency_us_p50@serve-mixed, latency_us_p99@serve-mixed";
const SM_T: &str = "latency_us_p99@serve-mixed, throughput_per_s@serve-mixed";

/// Every per-layer metric. Times are computed over every span of that
/// name in the process (set-up included); `*.share` values only over the
/// traced timed operations; `*_total` counts over the 29 programs once.
pub const PER_LAYER: &[PerLayer] = &[
    layer(
        "bench.op.us_p50",
        "us",
        "lower",
        "latency_us_p50@all (traced)",
    ),
    layer(
        "bench.op.us_p99",
        "us",
        "lower",
        "latency_us_p99@all (traced)",
    ),
    layer(
        "bench.self.share",
        "fraction",
        "lower",
        "coverage: the benchmark's own share of op time",
    ),
    layer("surface.share", "fraction", "lower", CC),
    layer("check.share", "fraction", "lower", CC),
    layer("core.share", "fraction", "lower", CC),
    layer("vm.share", "fraction", "lower", RV),
    layer("eval.share", "fraction", "lower", "setup_s@all"),
    layer("server.share", "fraction", "lower", SM),
    layer("persist.share", "fraction", "lower", RW),
    layer("client.share", "fraction", "lower", SM),
    layer(
        "surface.compile.us_p50",
        "us",
        "lower",
        "latency_us_p50@compile-cold, latency_us_p50@restart-warm",
    ),
    layer(
        "check.lint.us_p50",
        "us",
        "lower",
        "latency_us_p50@compile-cold",
    ),
    layer("check.lint_output.us_p50", "us", "lower", RW),
    layer("core.optimize.us_p50", "us", "lower", CC),
    layer("core.pipeline.share", "fraction", "lower", CC),
    layer("core.simplify.us_per_run", "us", "lower", CC),
    layer("core.simplify.runs", "count", "lower", CC),
    layer("core.simplify.useful_ratio", "fraction", "higher", CC),
    layer("core.contify.us_per_run", "us", "lower", CC),
    layer("core.contify.runs", "count", "lower", CC),
    layer("core.contify.useful_ratio", "fraction", "higher", CC),
    layer("core.contify.share", "fraction", "lower", CC),
    layer("core.float-in.us_per_run", "us", "lower", CC),
    layer("core.float-in.runs", "count", "lower", CC),
    layer("core.float-in.useful_ratio", "fraction", "higher", CC),
    layer("core.float-out.us_per_run", "us", "lower", CC),
    layer("core.float-out.runs", "count", "lower", CC),
    layer("core.float-out.useful_ratio", "fraction", "higher", CC),
    layer(
        "core.size_before_total",
        "nodes",
        "lower",
        "code_size_total@all",
    ),
    layer(
        "core.size_after_total",
        "nodes",
        "lower",
        "code_size_total@all",
    ),
    layer(
        "core.contified_total",
        "count",
        "higher",
        "allocs_total@run-vm",
    ),
    layer("core.fingerprint.us_p50", "us", "lower", RW),
    layer("core.alpha_verify.us_p50", "us", "lower", RW),
    layer("vm.compile.us_p50", "us", "lower", RV),
    layer("vm.exec.us_p50", "us", "lower", RV),
    layer("vm.exec.us_p99", "us", "lower", "latency_us_p99@run-vm"),
    layer("vm.instrs_total", "count", "lower", RV),
    layer("vm.code_ops_total", "count", "lower", RV),
    layer("vm.let_allocs_total", "allocs", "lower", "allocs_total@all"),
    layer("vm.arg_allocs_total", "allocs", "lower", "allocs_total@all"),
    layer("vm.con_allocs_total", "allocs", "lower", "allocs_total@all"),
    layer("vm.jumps_total", "count", "higher", "allocs_total@all"),
    layer("eval.run.ms_total", "ms", "lower", "setup_s@all"),
    layer(
        "server.handle.hot.us_p50",
        "us",
        "lower",
        "latency_us_p50@serve-mixed",
    ),
    layer("server.handle.warm.us_p50", "us", "lower", SM),
    layer("server.handle.cold.us_p50", "us", "lower", SM),
    layer("server.handle.run.us_p50", "us", "lower", SM),
    layer("server.cache.hit_ratio", "fraction", "higher", SM),
    layer(
        "server.cache.evictions",
        "count",
        "lower",
        "peak_rss_mb@serve-mixed",
    ),
    layer("server.cache.coalesced", "count", "higher", SM),
    layer("server.disk.writes", "count", "lower", SM_T),
    layer("server.disk.write_failures", "count", "lower", SM),
    layer("server.service.shed", "count", "lower", SM_T),
    layer("server.service.failed", "count", "lower", SM_T),
    layer("server.service.conns_accepted", "count", "lower", SM_T),
    layer("persist.load.us_p50", "us", "lower", RW),
    layer(
        "persist.load.us_p99",
        "us",
        "lower",
        "latency_us_p99@restart-warm",
    ),
    layer(
        "persist.store.us_p50",
        "us",
        "lower",
        "latency_us_p99@serve-mixed",
    ),
    layer("client.fresh_over_persistent.p50", "ratio", "lower", SM),
    layer("client.fresh_over_persistent.p99", "ratio", "lower", SM_T),
    layer("client.hot.wire_share", "fraction", "lower", SM),
    layer("client.warm.wire_share", "fraction", "lower", SM),
    layer("client.cold.wire_share", "fraction", "lower", SM),
    layer("client.run.wire_share", "fraction", "lower", SM),
    layer("client.pipeline_wall.share", "fraction", "higher", SM_T),
    layer("gen.late.share", "fraction", "lower", SM_T),
];

/// A per-layer value and the counts it came from.
pub struct LayerValue {
    /// The value.
    pub value: f64,
    /// Its basis: a sample count, or a ratio's numerator and denominator.
    pub basis: String,
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Compute every per-layer metric.
pub fn per_layer(
    spans: &[Span],
    oracle: &Oracle,
    m: &Measured,
    setups: usize,
) -> HashMap<&'static str, LayerValue> {
    let selfs = trace::self_times(spans);
    let roots = trace::roots(spans);
    let mut by_name: HashMap<&str, Vec<usize>> = HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        by_name.entry(s.name).or_default().push(i);
    }
    let idx = |name: &str| by_name.get(name).map_or(&[][..], Vec::as_slice);
    let durs = |name: &str| {
        idx(name)
            .iter()
            .map(|&i| us(spans[i].dur()))
            .collect::<Vec<f64>>()
    };
    let sum_dur = |name: &str| idx(name).iter().map(|&i| spans[i].dur()).sum::<u64>() as f64;

    let mut out: HashMap<&'static str, LayerValue> = HashMap::new();
    let mut put = |name: &'static str, value: f64, basis: String| {
        out.insert(name, LayerValue { value, basis });
    };
    let latency = |name: &str| Latency::of(&durs(name));

    // Timed operations: their wall time and each layer's share of it.
    let ops: Vec<usize> = idx("bench.op")
        .iter()
        .copied()
        .filter(|&i| spans[i].parent.is_none())
        .collect();
    let op_ns: f64 = ops.iter().map(|&i| spans[i].dur()).sum::<u64>() as f64;
    let op_lat = Latency::of(&ops.iter().map(|&i| us(spans[i].dur())).collect::<Vec<_>>());
    put("bench.op.us_p50", op_lat.p50, format!("n={}", op_lat.n));
    put("bench.op.us_p99", op_lat.p99, format!("n={}", op_lat.n));
    let mut layer_self: HashMap<&str, f64> = HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        if spans[roots[i]].name == "bench.op" && spans[roots[i]].parent.is_none() {
            *layer_self.entry(s.layer()).or_default() += selfs[i] as f64;
        }
    }
    for (layer, name) in [
        ("bench", "bench.self.share"),
        ("surface", "surface.share"),
        ("check", "check.share"),
        ("core", "core.share"),
        ("vm", "vm.share"),
        ("eval", "eval.share"),
        ("server", "server.share"),
        ("persist", "persist.share"),
        ("client", "client.share"),
    ] {
        let own = layer_self.get(layer).copied().unwrap_or(0.0);
        put(
            name,
            ratio(own, op_ns),
            format!("{:.0}/{:.0} µs", own / 1e3, op_ns / 1e3),
        );
    }

    for (name, p50, p99) in [
        ("surface.compile", "surface.compile.us_p50", None),
        ("check.lint", "check.lint.us_p50", None),
        ("check.lint_output", "check.lint_output.us_p50", None),
        ("core.optimize", "core.optimize.us_p50", None),
        ("core.fingerprint", "core.fingerprint.us_p50", None),
        ("core.alpha_verify", "core.alpha_verify.us_p50", None),
        ("vm.compile", "vm.compile.us_p50", None),
        ("vm.exec", "vm.exec.us_p50", Some("vm.exec.us_p99")),
        ("server.handle.hot", "server.handle.hot.us_p50", None),
        ("server.handle.warm", "server.handle.warm.us_p50", None),
        ("server.handle.cold", "server.handle.cold.us_p50", None),
        ("server.handle.run", "server.handle.run.us_p50", None),
        (
            "persist.load",
            "persist.load.us_p50",
            Some("persist.load.us_p99"),
        ),
        ("persist.store", "persist.store.us_p50", None),
    ] {
        let l = latency(name);
        put(p50, l.p50, format!("n={}", l.n));
        if let Some(p99) = p99 {
            put(p99, l.p99, format!("n={}", l.n));
        }
    }

    let optimize_ns = sum_dur("core.optimize");
    let optimize_self: f64 = idx("core.optimize").iter().map(|&i| selfs[i] as f64).sum();
    put(
        "core.pipeline.share",
        ratio(optimize_self, optimize_ns),
        format!("{:.0}/{:.0} µs", optimize_self / 1e3, optimize_ns / 1e3),
    );
    for (pass, per_run, runs, useful) in [
        (
            "core.simplify",
            "core.simplify.us_per_run",
            "core.simplify.runs",
            "core.simplify.useful_ratio",
        ),
        (
            "core.contify",
            "core.contify.us_per_run",
            "core.contify.runs",
            "core.contify.useful_ratio",
        ),
        (
            "core.float-in",
            "core.float-in.us_per_run",
            "core.float-in.runs",
            "core.float-in.useful_ratio",
        ),
        (
            "core.float-out",
            "core.float-out.us_per_run",
            "core.float-out.runs",
            "core.float-out.useful_ratio",
        ),
    ] {
        let n = idx(pass).len() as f64;
        let rewrote = idx(pass).iter().filter(|&&i| spans[i].n > 0).count() as f64;
        put(per_run, mean(&durs(pass)), format!("n={n}"));
        put(runs, n, String::new());
        put(
            useful,
            ratio(rewrote, n),
            format!("{rewrote}/{n} runs rewrote"),
        );
    }
    let contify_ns = sum_dur("core.contify");
    put(
        "core.contify.share",
        ratio(contify_ns, optimize_ns),
        format!("{:.0}/{:.0} µs", contify_ns / 1e3, optimize_ns / 1e3),
    );
    let eval_ms = sum_dur("eval.run") / 1e6 / setups.max(1) as f64;
    put(
        "eval.run.ms_total",
        eval_ms,
        format!("per set-up, {setups} set-ups"),
    );

    let total = |f: &dyn Fn(&crate::oracle::Reference) -> u64| {
        oracle.refs.iter().map(f).sum::<u64>() as f64
    };
    let basis = format!("{} programs", oracle.refs.len());
    put(
        "core.size_before_total",
        total(&|r| r.before.size as u64),
        basis.clone(),
    );
    put(
        "core.size_after_total",
        total(&|r| r.after.size as u64),
        basis.clone(),
    );
    put(
        "core.contified_total",
        total(&|r| r.contified),
        basis.clone(),
    );
    put("vm.instrs_total", total(&|r| r.vm.steps), basis.clone());
    put(
        "vm.code_ops_total",
        total(&|r| r.code_ops as u64),
        basis.clone(),
    );
    put(
        "vm.let_allocs_total",
        total(&|r| r.vm.let_allocs),
        basis.clone(),
    );
    put(
        "vm.arg_allocs_total",
        total(&|r| r.vm.arg_allocs),
        basis.clone(),
    );
    put(
        "vm.con_allocs_total",
        total(&|r| r.vm.con_allocs),
        basis.clone(),
    );
    put("vm.jumps_total", total(&|r| r.vm.jumps), basis);

    for (name, value) in &m.extras {
        put(name, *value, "serve-mixed".to_string());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fj_server::json::{parse, Value};

    /// `BENCHMARK.json` at the repository root must describe exactly the
    /// metrics this program prints.
    #[test]
    fn benchmark_json_matches_the_definitions() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json exists");
        let spec = parse(&text).expect("BENCHMARK.json parses");
        let list = |key: &str| {
            spec.get(key)
                .and_then(Value::as_arr)
                .expect("a list")
                .to_vec()
        };
        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (got, want) in e2e.iter().zip(END_TO_END) {
            assert_eq!(got.get("name").and_then(Value::as_str), Some(want.name));
            assert_eq!(got.get("unit").and_then(Value::as_str), Some(want.unit));
            assert_eq!(got.get("better").and_then(Value::as_str), Some(want.better));
            assert_eq!(got.get("bound").and_then(Value::as_f64), Some(want.bound));
        }
        let layers = list("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (got, want) in layers.iter().zip(PER_LAYER) {
            assert_eq!(got.get("name").and_then(Value::as_str), Some(want.name));
            assert_eq!(got.get("unit").and_then(Value::as_str), Some(want.unit));
            assert_eq!(got.get("better").and_then(Value::as_str), Some(want.better));
        }
        assert_eq!(
            spec.get("run_seconds").and_then(Value::as_f64),
            Some(RUN_SECONDS)
        );
        let workloads: Vec<String> = list("workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(Value::as_str).map(str::to_string))
            .collect();
        assert_eq!(
            workloads,
            crate::Workload::ALL.map(|w| w.name().to_string())
        );
    }
}
