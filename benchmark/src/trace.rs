//! An in-memory span recorder.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions; nothing inside the system under test is
//! instrumented. Each thread keeps its own span list (the workloads and
//! the client threads never share one), and recording is off unless a
//! workload turns it on for a traced operation, so untraced operations
//! pay one thread-local flag check per boundary.
//!
//! A span's *self time* is its duration minus the part of its interval
//! that its child spans cover.

use std::cell::{Cell, RefCell};
use std::io::Write;
use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// `layer.what`, e.g. `surface.compile`; the layer is the text before
    /// the first dot.
    pub name: &'static str,
    /// Start, in nanoseconds since the process epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the process epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same list.
    pub parent: Option<usize>,
    /// The timed operation this span belongs to; 0 for set-up work.
    pub op: u64,
    /// A count attached to the span (rewrites fired, for optimizer passes).
    pub n: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer this span belongs to.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

#[derive(Default)]
struct Recorder {
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static REC: RefCell<Recorder> = RefCell::new(Recorder::default());
}

/// The process-wide time origin of span timestamps.
pub fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn ns(t: Instant) -> u64 {
    u64::try_from(t.saturating_duration_since(epoch()).as_nanos()).unwrap_or(u64::MAX)
}

/// Turn recording on or off for this thread.
pub fn set_on(on: bool) {
    ON.with(|c| c.set(on));
}

fn is_on() -> bool {
    ON.with(Cell::get)
}

/// Attribute subsequent spans on this thread to operation `op`.
pub fn begin_op(op: u64) {
    REC.with(|r| r.borrow_mut().op = op);
}

/// An open span; it ends when dropped.
#[must_use]
pub struct Guard(Option<usize>);

/// Open a span nested in the innermost open span of this thread.
pub fn span(name: &'static str) -> Guard {
    if !is_on() {
        return Guard(None);
    }
    let start = ns(Instant::now());
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let index = r.spans.len();
        let parent = r.open.last().copied();
        let op = r.op;
        r.spans.push(Span {
            name,
            start_ns: start,
            end_ns: start,
            parent,
            op,
            n: 0,
        });
        r.open.push(index);
        Guard(Some(index))
    })
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(index) = self.0 {
            let end = ns(Instant::now());
            REC.with(|r| {
                let mut r = r.borrow_mut();
                r.spans[index].end_ns = end;
                if r.open.last() == Some(&index) {
                    r.open.pop();
                }
            });
        }
    }
}

/// Run `f` inside a span.
pub fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let _span = span(name);
    f()
}

/// Record an already finished interval as a child of the innermost open
/// span (used for the optimizer's own per-pass wall times).
pub fn record(name: &'static str, start: Instant, end: Instant, n: u64) {
    if !is_on() {
        return;
    }
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let parent = r.open.last().copied();
        let op = r.op;
        r.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
            op,
            n,
        });
    });
}

/// Take every span this thread recorded so far.
pub fn take() -> Vec<Span> {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.open.clear();
        std::mem::take(&mut r.spans)
    })
}

/// Append `from` (one thread's spans) to `into`, re-basing parent links.
pub fn merge(into: &mut Vec<Span>, from: Vec<Span>) {
    let base = into.len();
    into.extend(from.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + base);
        s
    }));
}

/// Nanoseconds of `[lo, hi)` covered by the union of `intervals`.
pub fn covered(lo: u64, hi: u64, mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (a, b) in intervals {
        let (a, b) = (a.max(lo), b.min(hi));
        if a >= b {
            continue;
        }
        current = match current {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + current.map_or(0, |(a, b)| b - a)
}

/// Self time of every span: its duration minus what its children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| s.dur() - covered(s.start_ns, s.end_ns, kids))
        .collect()
}

/// Index of the outermost ancestor of every span. Parents are always
/// recorded before their children, so one forward pass suffices.
pub fn roots(spans: &[Span]) -> Vec<usize> {
    let mut root = Vec::with_capacity(spans.len());
    for (i, s) in spans.iter().enumerate() {
        let r = s.parent.map_or(i, |p| root[p]);
        root.push(r);
    }
    root
}

/// Write the spans as JSON lines, one span per line, with self times.
///
/// # Errors
///
/// Any IO error creating or writing the file.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let selfs = self_times(spans);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (s, self_ns) in spans.iter().zip(selfs) {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {self_ns}, \
             \"parent\": {parent}, \"op\": {}, \"n\": {}}}",
            s.name, s.start_ns, s.end_ns, s.op, s.n
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 1,
            n: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            at("bench.op", 0, 100, None),
            at("surface.compile", 10, 30, Some(0)),
            at("core.optimize", 30, 90, Some(0)),
            at("core.simplify", 35, 50, Some(2)),
            at("core.contify", 50, 80, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![20, 20, 15, 15, 30]);
        assert_eq!(roots(&spans), vec![0, 0, 0, 0, 0]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        // Children overlap each other and one pokes past the parent's end.
        assert_eq!(covered(0, 100, vec![(10, 40), (30, 60), (90, 130)]), 60);
        assert_eq!(covered(0, 100, vec![]), 0);
        assert_eq!(covered(50, 60, vec![(0, 10), (70, 80)]), 0);
        let spans = vec![
            at("bench.op", 0, 100, None),
            at("client.send", 10, 40, Some(0)),
            at("client.recv", 30, 60, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 50);
    }

    #[test]
    fn recording_is_off_by_default_and_nests_when_on() {
        take();
        {
            let _ignored = span("bench.op");
        }
        assert!(take().is_empty());
        set_on(true);
        begin_op(7);
        {
            let _op = span("bench.op");
            timed("surface.compile", || std::hint::black_box(1 + 1));
            let now = Instant::now();
            record("core.simplify", now, now, 3);
        }
        set_on(false);
        let spans = take();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[2].n, 3);
        assert!(spans.iter().all(|s| s.op == 7));
        let mut all = vec![at("bench.op", 0, 1, None)];
        merge(&mut all, spans);
        assert_eq!(all[2].parent, Some(1));
    }
}
