//! Allocation and step accounting — the evaluation metric of the paper.
//!
//! The paper reports *heap allocations* as "a repeatable proxy for runtime"
//! (Sec. 7). Our machine counts the allocation events GHC's story is about:
//!
//! * **`let`-bound thunks and closures**: **+1 per binding** whose RHS is
//!   not freely duplicable (variables, literals, and nullary constructors
//!   are substituted inline and cost nothing). This is the cost that
//!   contification eliminates — a `join` binding is a stack frame, **+0**
//!   (Fig. 3 stack-allocates join points).
//! * **argument bindings** (β, jump arguments): **+1** for a non-cheap
//!   argument — a thunk under call-by-name, a fresh closure under
//!   call-by-value. Jump arguments are charged *the same way* as function
//!   arguments, so "join vs function" comparisons isolate exactly the
//!   closure/context cost the paper talks about. Already-evaluated values
//!   passed along (call-by-value) are free: they were charged when built.
//! * **data construction**: **+1 per constructor cell with at least one
//!   field**, charged once at the point the cell is built (nullary
//!   constructors are shared statics in GHC and cost nothing; call-by-need
//!   updates and case-field rebinding never recount a cell).
//! * **case field bindings** and call-by-need updates: **+0** — the fields
//!   were paid for when the constructor was built.

use std::fmt;

/// Counters collected during one machine run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Machine transitions taken.
    pub steps: u64,
    /// Heap closures/thunks allocated by `let` bindings.
    pub let_allocs: u64,
    /// Thunks/values allocated for non-atomic function and jump arguments.
    pub arg_allocs: u64,
    /// Constructor cells allocated (constructors with ≥ 1 field).
    pub con_allocs: u64,
    /// Jumps taken (each is a stack adjustment, never an allocation).
    pub jumps: u64,
    /// High-water mark of the frame stack.
    pub max_stack: usize,
}

impl Metrics {
    /// Total allocation events — the number the paper's Table 1 compares.
    pub fn total_allocs(&self) -> u64 {
        self.let_allocs + self.arg_allocs + self.con_allocs
    }

    /// The counters every backend must reproduce exactly, as
    /// `(let_allocs, arg_allocs, con_allocs, jumps)`. `steps` and
    /// `max_stack` are exempt: each backend counts its own transitions
    /// and frames, and a machine step is not a VM instruction.
    pub fn backend_counters(&self) -> (u64, u64, u64, u64) {
        (
            self.let_allocs,
            self.arg_allocs,
            self.con_allocs,
            self.jumps,
        )
    }

    /// Percentage change in total allocations from `baseline` to `self`,
    /// as the paper reports it (negative = improvement).
    ///
    /// Returns `-100.0` when the baseline allocates and `self` does not,
    /// `0.0` when neither allocates, and `f64::INFINITY` when the baseline
    /// allocates nothing and `self` does.
    pub fn alloc_delta_pct(&self, baseline: &Metrics) -> f64 {
        let b = baseline.total_allocs() as f64;
        let n = self.total_allocs() as f64;
        if b == 0.0 {
            if n == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            (n - b) / b * 100.0
        }
    }
}

impl fmt::Display for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "steps={} allocs={} (let={} arg={} con={}) jumps={} max_stack={}",
            self.steps,
            self.total_allocs(),
            self.let_allocs,
            self.arg_allocs,
            self.con_allocs,
            self.jumps,
            self.max_stack
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_sum_components() {
        let m = Metrics {
            let_allocs: 2,
            arg_allocs: 3,
            con_allocs: 5,
            ..Metrics::default()
        };
        assert_eq!(m.total_allocs(), 10);
    }

    #[test]
    fn delta_pct() {
        let base = Metrics {
            let_allocs: 100,
            ..Metrics::default()
        };
        let new = Metrics {
            let_allocs: 92,
            ..Metrics::default()
        };
        let d = new.alloc_delta_pct(&base);
        assert!((d + 8.0).abs() < 1e-9, "{d}");
        let zero = Metrics::default();
        assert_eq!(zero.alloc_delta_pct(&base), -100.0);
        assert_eq!(zero.alloc_delta_pct(&zero), 0.0);
    }
}
