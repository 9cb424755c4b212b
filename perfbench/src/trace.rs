//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around its calls into
//! each layer's public functions: one `op` span per operation, then
//! `optimizer`, `gpu_lint`, `executor`, `check` and `backend.<method>`
//! spans beneath it. Recording is off unless [`enable`] turned it on, so
//! the untraced run pays one thread-local flag test per span site.
//!
//! A span's *self time* is its duration minus the part of its interval
//! that its child spans cover ([`self_times`]).

use std::cell::RefCell;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary the span marks (`op`, `executor`, `backend.sort`, …).
    pub name: &'static str,
    /// Qualifier: the backend of a `backend.*` span, the planner mode of
    /// an `optimizer` span, empty otherwise.
    pub tag: &'static str,
    /// Start, nanoseconds since the epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the epoch (equal to `start_ns` while open).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Operation the span belongs to.
    pub op: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

struct Recorder {
    on: bool,
    epoch: Instant,
    op: u64,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        on: false,
        epoch: Instant::now(),
        op: 0,
        spans: Vec::new(),
        stack: Vec::new(),
    });
}

/// Turn recording on or off. Turning it on pre-sizes the span buffer so
/// growth does not show up in the measured operations.
pub fn enable(on: bool) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.on = on;
        if on && r.spans.capacity() < 1 << 16 {
            r.spans.reserve(1 << 20);
        }
    });
}

/// Set the operation id stamped on spans opened from now on.
pub fn set_op(op: u64) {
    REC.with(|r| r.borrow_mut().op = op);
}

/// Remove and return every recorded span.
pub fn take() -> Vec<Span> {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.stack.clear();
        std::mem::take(&mut r.spans)
    })
}

/// Guard of an open span; the span ends when the guard drops.
#[derive(Debug)]
#[must_use = "the span ends when the guard drops"]
pub struct Guard(Option<u32>);

/// Open a span named `name` (qualified by `tag`) under the innermost
/// open span. Returns an inert guard when recording is off.
pub fn span(name: &'static str, tag: &'static str) -> Guard {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        if !r.on {
            return Guard(None);
        }
        let now = r.epoch.elapsed().as_nanos() as u64;
        let ix = r.spans.len() as u32;
        let parent = r.stack.last().copied();
        let op = r.op;
        r.spans.push(Span {
            name,
            tag,
            start_ns: now,
            end_ns: now,
            parent,
            op,
        });
        r.stack.push(ix);
        Guard(Some(ix))
    })
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(ix) = self.0 else { return };
        REC.with(|r| {
            let mut r = r.borrow_mut();
            let now = r.epoch.elapsed().as_nanos() as u64;
            if let Some(s) = r.spans.get_mut(ix as usize) {
                s.end_ns = now;
            }
            if r.stack.last() == Some(&ix) {
                r.stack.pop();
            }
        });
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, each clipped to the parent's interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            if let Some(c) = children.get_mut(p as usize) {
                c.push((s.start_ns, s.end_ns));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| s.dur_ns() - covered(s.start_ns, s.end_ns, kids))
        .collect()
}

/// Length of the part of `[lo, hi]` covered by the union of `intervals`.
fn covered(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            tag: "",
            start_ns: start,
            end_ns: end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // op [0,100) ⊃ executor [10,80) ⊃ backend [20,30) and [25,50).
        let spans = [
            sp("op", 0, 100, None),
            sp("executor", 10, 80, Some(0)),
            sp("backend.sort", 20, 30, Some(1)),
            sp("backend.gather", 25, 50, Some(1)),
            sp("check", 90, 100, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![20, 40, 10, 25, 10]);
    }

    #[test]
    fn zero_length_spans_have_no_self_time_and_cover_nothing() {
        let spans = [
            sp("op", 5, 50, None),
            sp("backend.free", 10, 10, Some(0)),
            sp("executor", 20, 20, Some(0)),
            sp("backend.sort", 30, 40, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![35, 0, 0, 10]);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = [sp("op", 10, 20, None), sp("backend.sort", 5, 25, Some(0))];
        assert_eq!(self_times(&spans), vec![0, 20]);
    }

    #[test]
    fn recorder_links_parents_and_ops() {
        enable(true);
        set_op(7);
        {
            let _op = span("op", "");
            let _b = span("backend.sort", "Thrust");
        }
        let _after = span("check", "");
        drop(_after);
        enable(false);
        let _off = span("op", "");
        drop(_off);
        let spans = take();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].tag, "Thrust");
        assert_eq!(spans[2].parent, None);
        assert!(spans.iter().all(|s| s.op == 7 && s.end_ns >= s.start_ns));
    }
}
