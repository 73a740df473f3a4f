//! Dependency-free parallel machinery: the `par_map` work queue.
//!
//! `par_map` backs the compile service's batch `compile` (one served
//! compile per program) and the fuzz farm (one generated case per job).
//! Those jobs are coarse and independent — each carries its own term,
//! datatype environment, and name supply — so a fixed pool of scoped
//! threads pulling indices off an atomic counter is all the machinery
//! needed. The workspace builds offline, so this stands in for a rayon
//! `par_iter`: the same work-stealing effect, none of the registry.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Map `f` over `items` on a scoped thread pool, preserving order.
///
/// Spawns at most `available_parallelism()` workers (never more than
/// there are items); each worker claims the next unclaimed index until
/// the queue drains. Falls back to a plain serial map when there is no
/// parallelism to exploit. A panic in `f` propagates to the caller when
/// the scope joins, like the serial map it replaces — and it *poisons*
/// the batch: surviving workers stop claiming new indices as soon as
/// they observe the flag, so a doomed batch fails fast instead of
/// grinding through the rest of the queue first.
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(items.len());
    par_map_with_threads(items, threads, f)
}

/// [`par_map`] with an explicit worker count (tests pin the pool size so
/// the poison-flag behaviour is observable on any machine).
fn par_map_with_threads<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    // Set by the first worker whose job panics; checked before every
    // claim. Without it, one panicking job left the other workers
    // draining the whole queue before the scope join could re-raise —
    // wasted work at best, and at worst a long stall between the fault
    // and its report.
    let poisoned = AtomicBool::new(false);
    // The panicking job's payload, re-raised on the caller's thread after
    // the scope joins (a scoped-thread panic would otherwise be replaced
    // by the generic "a scoped thread panicked" payload).
    let first_panic: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
    let f = &f;
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                if poisoned.load(Ordering::Acquire) {
                    break;
                }
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = slots[i]
                    .lock()
                    .unwrap()
                    .take()
                    .expect("par_map: index claimed twice");
                match panic::catch_unwind(AssertUnwindSafe(|| f(item))) {
                    Ok(out) => *results[i].lock().unwrap() = Some(out),
                    Err(payload) => {
                        if !poisoned.swap(true, Ordering::AcqRel) {
                            *first_panic.lock().unwrap() = Some(payload);
                        }
                        break;
                    }
                }
            });
        }
    });
    if let Some(payload) = first_panic.into_inner().unwrap() {
        panic::resume_unwind(payload);
    }
    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap()
                .expect("par_map: worker left a hole")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let xs: Vec<usize> = (0..100).collect();
        let ys = par_map(xs, |x| x * 2);
        assert_eq!(ys, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_empty_and_single() {
        assert_eq!(par_map(Vec::<usize>::new(), |x| x), Vec::<usize>::new());
        assert_eq!(par_map(vec![7], |x| x + 1), vec![8]);
    }

    /// Regression: one panicking job must poison the whole batch. Before
    /// the poison flag, the surviving worker drained every remaining
    /// index; now it stops at the first claim after the panic. The job
    /// bodies sleep so the panic (job 0, instant) lands while the queue
    /// is still nearly full, making the counter discriminate sharply.
    #[test]
    fn par_map_panic_poisons_the_batch() {
        const JOBS: usize = 64;
        let ran_after_panic = AtomicUsize::new(0);
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            par_map_with_threads((0..JOBS).collect::<Vec<_>>(), 2, |i| {
                if i == 0 {
                    crate::guard::install_quiet_panic_hook();
                    let _quiet = crate::guard::Quiet::on();
                    panic!("par_map poison test");
                }
                ran_after_panic.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(std::time::Duration::from_millis(2));
                i
            })
        }));
        assert!(outcome.is_err(), "the injected panic must propagate");
        let ran = ran_after_panic.load(Ordering::SeqCst);
        assert!(
            ran < JOBS / 2,
            "poison flag ignored: {ran} of {} jobs still ran after the panic",
            JOBS - 1
        );
    }

    /// The panic payload that reaches the caller is the injected one, not
    /// a poison-bookkeeping artifact.
    #[test]
    fn par_map_propagates_the_original_payload() {
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            par_map_with_threads(vec![0, 1], 2, |i| {
                if i == 1 {
                    crate::guard::install_quiet_panic_hook();
                    let _quiet = crate::guard::Quiet::on();
                    panic!("original payload");
                }
                i
            })
        }));
        let payload = outcome.expect_err("must panic");
        let msg = payload
            .downcast_ref::<&'static str>()
            .copied()
            .unwrap_or("");
        assert_eq!(msg, "original payload");
    }
}
