//! Dependency-free parallel machinery: the `par_map` work queue and the
//! `BoundedQueue` under `fj serve`'s worker pool.
//!
//! `par_map` backs the compile service's batch `compile` (one served
//! compile per program) and the fuzz farm (one generated case per job).
//! Those jobs are coarse and independent — each carries its own term,
//! datatype environment, and name supply — so a fixed pool of scoped
//! threads pulling indices off an atomic counter is all the machinery
//! needed. The workspace builds offline, so this stands in for a rayon
//! `par_iter`: the same work-stealing effect, none of the registry.

use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

/// A bounded multi-producer / multi-consumer FIFO queue with
/// *non-blocking* admission: [`try_push`](BoundedQueue::try_push) never
/// waits — a full queue rejects the item so the producer can shed load
/// instead of queueing without limit. Consumers block in
/// [`pop`](BoundedQueue::pop) until an item arrives or the queue is
/// [`close`](BoundedQueue::close)d *and* drained, which is exactly the
/// drain protocol a graceful shutdown wants: admission stops, in-flight
/// work finishes.
///
/// This is the admission-control primitive under `fj serve`'s worker
/// pool; it lives here next to [`par_map`] because it is the same kind
/// of dependency-free parallel machinery.
pub struct BoundedQueue<T> {
    inner: Mutex<QueueInner<T>>,
    ready: Condvar,
    cap: usize,
}

struct QueueInner<T> {
    items: VecDeque<T>,
    closed: bool,
}

impl<T> BoundedQueue<T> {
    /// A queue admitting at most `cap` queued items (minimum 1).
    pub fn new(cap: usize) -> BoundedQueue<T> {
        BoundedQueue {
            inner: Mutex::new(QueueInner {
                items: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            cap: cap.max(1),
        }
    }

    /// Admit `item`, or hand it back when the queue is full or closed.
    /// Never blocks: rejection is the backpressure signal.
    ///
    /// # Errors
    ///
    /// Returns `Err(item)` so the caller can shed it with context.
    pub fn try_push(&self, item: T) -> Result<(), T> {
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        if inner.closed || inner.items.len() >= self.cap {
            return Err(item);
        }
        inner.items.push_back(item);
        drop(inner);
        self.ready.notify_one();
        Ok(())
    }

    /// Block until an item is available and take it. Returns `None` once
    /// the queue is closed *and* every queued item has been consumed —
    /// consumers drain in-flight work before exiting.
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            if let Some(item) = inner.items.pop_front() {
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = self.ready.wait(inner).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// How many items are queued right now (racy, for stats/heuristics).
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .items
            .len()
    }

    /// Is the queue empty right now (racy, for drain polling)?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Stop admitting new items and wake every blocked consumer. Queued
    /// items remain poppable; `pop` returns `None` only once they drain.
    pub fn close(&self) {
        self.inner.lock().unwrap_or_else(|p| p.into_inner()).closed = true;
        self.ready.notify_all();
    }
}

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

    #[test]
    fn bounded_queue_sheds_when_full_and_drains_on_close() {
        let q = BoundedQueue::new(2);
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_ok());
        // Full: admission is refused, the item comes back.
        assert_eq!(q.try_push(3), Err(3));
        assert_eq!(q.len(), 2);
        q.close();
        // Closed: refused even though consuming would make room.
        assert_eq!(q.try_push(4), Err(4));
        // Queued work still drains, in FIFO order, then `None`.
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn bounded_queue_close_wakes_blocked_consumers() {
        let q = std::sync::Arc::new(BoundedQueue::<usize>::new(4));
        let consumer = {
            let q = q.clone();
            std::thread::spawn(move || q.pop())
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert_eq!(
            consumer.join().expect("consumer must not panic"),
            None,
            "a blocked pop must observe close"
        );
    }

    #[test]
    fn bounded_queue_moves_items_across_threads() {
        let q = std::sync::Arc::new(BoundedQueue::<usize>::new(8));
        let consumer = {
            let q = q.clone();
            std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(x) = q.pop() {
                    got.push(x);
                }
                got
            })
        };
        let mut pushed = 0usize;
        for i in 0..100 {
            // Shed-and-retry producer: the consumer guarantees progress.
            let mut item = i;
            loop {
                match q.try_push(item) {
                    Ok(()) => break,
                    Err(back) => {
                        item = back;
                        std::thread::yield_now();
                    }
                }
            }
            pushed += 1;
        }
        q.close();
        let got = consumer.join().unwrap();
        assert_eq!(got.len(), pushed);
        assert!(got.windows(2).all(|w| w[0] < w[1]), "FIFO order violated");
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
