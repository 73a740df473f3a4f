//! Host-speed calibration.
//!
//! The shared host this benchmark runs on slows down by up to 1.8× for
//! stretches of seconds to many minutes as other tenants load it. The
//! slowdown hits allocation-heavy, pointer-chasing code — the compiler,
//! the VM, the service — so a run's raw timings depend on when it ran. A
//! small allocation kernel (box 500 cells, walk them, free them) slows by
//! nearly the same factor as the workloads.
//!
//! So runs measure the kernel and report timings scaled to nominal host
//! speed: `value × nominal ÷ (median kernel time)`, where the nominal is
//! the kernel's time on a quiet host run the same way. The raw values and
//! the factors are printed and written to `results.jsonl` next to the
//! scaled ones, so `compare` can tell when the two sides of a comparison
//! were scaled by different factors.
//!
//! Where the kernel runs decides how well it tracks. On the reference
//! host, sets of ten `compile-cold` runs spread 8–10% in raw p50 latency
//! (interquartile range over median). Scaled by the kernel run on the
//! workload's own thread between operations they spread 2.0–2.2%; by the
//! same kernel in a helper process, 2.9–5.1%; in a thread of its own,
//! 5.9%. A pointer chase that allocates nothing tracked worse (10–17%).
//! So the closed-loop workloads run the kernel in-line, about once a
//! millisecond between operations, and scale each operation by the median
//! of its half-second slice; each set-up is scaled by the median over its
//! reference programs.
//!
//! The kernel therefore shares the process's allocator with the code
//! under test, and two couplings follow. The allocator runs in a slower
//! locking mode once a process has had a second thread, and the kernel
//! with it, so `main` starts a thread before anything is measured: a
//! change that adds threads to the code under test cannot switch the
//! mode between commits. And heap state the code leaves behind can move
//! the kernel; `compare` reports a pairing as unresolved when the two
//! sides' median factors differ by more than the metric's bound.
//!
//! `serve-mixed` measures a child process, so its kernel runs in the
//! benchmark on a sampler thread of its own, woken every [`WAKE_EVERY`] as
//! the server's threads are woken by each request. In one set of ten runs
//! whose raw median latency spread 16%, the kernel timed on the
//! benchmark's main thread, in the heap set-up left behind, narrowed that
//! only to 13%, while the same kernel on a clean heap narrowed it to
//! 5–7%; with the sampler thread, three sets went from 9.6%, 28% and 38%
//! raw to 3.1%, 7.8% and 6.4%.
//! It scales only the median latency: see [`crate::serve_mixed`] for why
//! the tail and throughput stay raw.

use crate::stats::{median, Sample};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The kernel's median duration on the reference host (2 vCPUs of a
/// Xeon, KVM) when it was quiet, in µs: run in-line between operations,
/// and run by a thread that has just woken from a [`WAKE_EVERY`] sleep.
const NOMINAL_US: f64 = 21.0;
const NOMINAL_WOKEN_US: f64 = 31.0;

/// Length of the slices a window's speed is estimated over.
pub const SLICE_S: f64 = 0.5;

/// Minimum gap between kernel runs.
const EVERY: Duration = Duration::from_millis(1);

/// Gap between kernel runs of a thread that only samples.
pub const WAKE_EVERY: Duration = Duration::from_millis(5);

/// Run the kernel once; its duration in µs.
pub fn kernel_us() -> f64 {
    let start = Instant::now();
    let cells: Vec<Box<[u64; 4]>> = (0..500u64)
        .map(|i| Box::new([i, i + 1, i + 2, i + 3]))
        .collect();
    black_box(cells.iter().map(|c| c[0] ^ c[3]).sum::<u64>());
    drop(black_box(cells));
    start.elapsed().as_secs_f64() * 1e6
}

/// Kernel timings taken while a window runs.
pub struct Calibrator {
    origin: Instant,
    nominal_us: f64,
    last: Option<Instant>,
    /// `(seconds into the window, kernel time ÷ nominal)`.
    pub samples: Vec<(f64, f64)>,
}

impl Calibrator {
    /// For the kernel run in-line between operations; timings are placed
    /// relative to `origin`.
    pub fn new(origin: Instant) -> Calibrator {
        Calibrator {
            origin,
            nominal_us: NOMINAL_US,
            last: None,
            samples: Vec::new(),
        }
    }

    /// For the kernel run by a thread that only samples, with
    /// [`Calibrator::sample_until`].
    pub fn woken(origin: Instant) -> Calibrator {
        Calibrator {
            nominal_us: NOMINAL_WOKEN_US,
            ..Calibrator::new(origin)
        }
    }

    /// Run the kernel if a millisecond has passed since it last ran.
    pub fn tick(&mut self) {
        let now = Instant::now();
        if self.last.is_some_and(|last| now - last < EVERY) {
            return;
        }
        let us = kernel_us();
        self.samples
            .push(((now - self.origin).as_secs_f64(), us / self.nominal_us));
        self.last = Some(Instant::now());
    }

    /// Sleep [`WAKE_EVERY`] and run the kernel on waking, until `deadline`.
    pub fn sample_until(&mut self, deadline: Instant) {
        while Instant::now() < deadline {
            std::thread::sleep(WAKE_EVERY);
            self.tick();
        }
    }

    /// How much slower than nominal the host ran over all samples.
    pub fn factor(&self) -> f64 {
        factor_of(&self.samples.iter().map(|s| s.1).collect::<Vec<_>>())
    }
}

fn factor_of(factors: &[f64]) -> f64 {
    if factors.is_empty() {
        1.0
    } else {
        median(factors)
    }
}

/// Speed factor of every [`SLICE_S`] slice of a window; a slice without
/// kernel timings takes the whole window's factor.
fn slice_factors(kernel: &[(f64, f64)], window_s: f64) -> Vec<f64> {
    let n = (window_s / SLICE_S).ceil().max(1.0) as usize;
    let mut slices = vec![Vec::new(); n];
    for &(t, f) in kernel {
        slices[((t / SLICE_S) as usize).min(n - 1)].push(f);
    }
    let overall = factor_of(&kernel.iter().map(|k| k.1).collect::<Vec<_>>());
    slices
        .iter()
        .map(|s| if s.is_empty() { overall } else { factor_of(s) })
        .collect()
}

/// A window's timings at nominal host speed.
pub struct Scaled {
    /// Each sample's latency ÷ its slice's factor.
    pub latencies: Vec<f64>,
    /// The window's length ÷ the factors, slice by slice.
    pub seconds: f64,
    /// Median factor over the window's slices.
    pub factor: f64,
}

/// Scale a window's samples by the speed of the slice each started in.
pub fn scale(samples: &[Sample], kernel: &[(f64, f64)], window_s: f64) -> Scaled {
    let factors = slice_factors(kernel, window_s);
    let last = factors.len() - 1;
    let latencies = samples
        .iter()
        .map(|s| s.us / factors[((s.t / SLICE_S) as usize).min(last)])
        .collect();
    let seconds = factors
        .iter()
        .enumerate()
        .map(|(i, f)| (window_s - i as f64 * SLICE_S).min(SLICE_S) / f)
        .sum();
    Scaled {
        latencies,
        seconds,
        factor: median(&factors),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_sample_is_scaled_by_its_own_slice() {
        // Slice 0 ran at nominal speed, slice 1 twice as slow, slice 2 has
        // no kernel timing and takes the window's median factor.
        let kernel = [(0.1, 1.0), (0.2, 1.0), (0.6, 2.0), (0.7, 2.0), (0.8, 2.0)];
        assert_eq!(slice_factors(&kernel, 1.5), vec![1.0, 2.0, 2.0]);
        let samples = [
            Sample { t: 0.3, us: 100.0 },
            Sample { t: 0.9, us: 100.0 },
            Sample { t: 1.2, us: 100.0 },
        ];
        let s = scale(&samples, &kernel, 1.5);
        assert_eq!(s.latencies, vec![100.0, 50.0, 50.0]);
        assert_eq!(s.seconds, 0.5 + 0.25 + 0.25);
        assert_eq!(s.factor, 2.0);
    }

    #[test]
    fn a_partial_last_slice_counts_for_its_length() {
        let s = scale(&[], &[(0.1, 1.0)], 0.75);
        assert_eq!(s.seconds, 0.75);
    }

    #[test]
    fn without_kernel_timings_nothing_is_scaled() {
        let c = Calibrator::new(Instant::now());
        assert_eq!(c.factor(), 1.0);
        assert_eq!(slice_factors(&[], 1.0), vec![1.0, 1.0]);
    }

    #[test]
    fn the_kernel_runs_at_most_once_a_millisecond() {
        let mut c = Calibrator::new(Instant::now());
        c.tick();
        c.tick();
        assert_eq!(c.samples.len(), 1);
        std::thread::sleep(EVERY);
        c.tick();
        assert_eq!(c.samples.len(), 2);
        assert!(c.samples.iter().all(|s| s.1 > 0.0));
        let mut w = Calibrator::woken(Instant::now());
        w.sample_until(Instant::now() + 3 * WAKE_EVERY);
        assert!(w.samples.len() >= 2);
    }
}
