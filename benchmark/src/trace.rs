//! Spans recorded by the benchmark's own code around every call into a
//! layer's public function. They stay in memory until the run ends;
//! nothing inside the repository's crates is switched on.
//!
//! A span carries its name, start, end, the span that caused it, and
//! the op and pass it belongs to; allocator counters are differenced at
//! the same boundaries. A layer's *self time* is its span minus the
//! part of that interval its child spans cover.

use crate::alloc;
use crate::util::{json_array, json_string, JsonObj};
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub op: u32,
    pub pass: u32,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    /// Indices of the spans still open, innermost last.
    stack: Vec<u32>,
    op: u32,
    pass: u32,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
            pass: 0,
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Which op of which pass the following spans belong to.
    pub fn set_context(&mut self, pass: u32, op: u32) {
        self.pass = pass;
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, a child of whichever span
    /// is open. With tracing off this is a plain call.
    pub fn scope<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len() as u32;
        let before = alloc::snapshot();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op: self.op,
            pass: self.pass,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
            allocs: 0,
            alloc_bytes: 0,
        });
        self.stack.push(index);
        let out = f(self);
        let end_ns = self.now_ns();
        let after = alloc::snapshot();
        self.stack.pop();
        let span = &mut self.spans[index as usize];
        span.end_ns = end_ns;
        span.allocs = after.allocs - before.allocs;
        span.alloc_bytes = after.bytes - before.bytes;
        out
    }

    /// Closes whatever a panicking op left open, so that the next op's
    /// spans do not become children of a dead one.
    pub fn unwind(&mut self) {
        let now = self.now_ns();
        while let Some(i) = self.stack.pop() {
            self.spans[i as usize].end_ns = now;
        }
    }
}

/// Per span, the nanoseconds its direct children do not cover. Children
/// may nest or overlap each other (pooled work does); covered time is
/// counted once, and a child is clipped to its parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            kids[p as usize].push((
                s.start_ns.clamp(parent.start_ns, parent.end_ns),
                s.end_ns.clamp(parent.start_ns, parent.end_ns),
            ));
        }
    }
    spans
        .iter()
        .zip(kids)
        .map(|(parent, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = parent.start_ns;
            for (start, end) in kids {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (parent.end_ns - parent.start_ns) - covered
        })
        .collect()
}

/// Per op, the minimum over passes of `value` summed over that op's
/// spans named `name` — the best-of-P rule applied to one layer.
pub fn best_per_op(
    spans: &[Span],
    name: &str,
    ops: usize,
    value: impl Fn(&Span) -> f64,
) -> Vec<f64> {
    let passes = spans.iter().map(|s| s.pass + 1).max().unwrap_or(0) as usize;
    let mut sums = vec![vec![0.0f64; ops]; passes];
    let mut seen = vec![vec![false; ops]; passes];
    for s in spans.iter().filter(|s| s.name == name) {
        sums[s.pass as usize][s.op as usize] += value(s);
        seen[s.pass as usize][s.op as usize] = true;
    }
    (0..ops)
        .map(|op| {
            (0..passes)
                .filter(|&p| seen[p][op])
                .map(|p| sums[p][op])
                .fold(f64::INFINITY, f64::min)
        })
        .map(|best| if best.is_finite() { best } else { 0.0 })
        .collect()
}

/// Σ over ops of [`best_per_op`] on span duration, in milliseconds.
pub fn layer_ms(spans: &[Span], name: &str, ops: usize) -> f64 {
    best_per_op(spans, name, ops, Span::ms).iter().sum()
}

/// Spans whose direct children together last longer than they do — a
/// ledger that does not add up. Must be 0.
pub fn overdrawn_spans(spans: &[Span]) -> usize {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.end_ns - s.start_ns;
        }
    }
    spans
        .iter()
        .zip(&child_ns)
        .filter(|(s, &kids)| kids > s.end_ns - s.start_ns)
        .count()
}

pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let items: Vec<String> = spans
        .iter()
        .zip(self_times(spans))
        .map(|(s, self_ns)| {
            JsonObj::default()
                .str("name", s.name)
                .int("op", u64::from(s.op))
                .int("pass", u64::from(s.pass))
                .raw(
                    "parent",
                    &s.parent.map_or("null".to_string(), |p| p.to_string()),
                )
                .int("start_ns", s.start_ns)
                .int("end_ns", s.end_ns)
                .int("self_ns", self_ns)
                .int("allocs", s.allocs)
                .int("alloc_bytes", s.alloc_bytes)
                .finish()
        })
        .collect();
    JsonObj::default()
        .raw("workload", &json_string(workload))
        .int("seed", seed)
        .raw("spans", &json_array(&items))
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            op: 0,
            pass: 0,
            parent,
            start_ns,
            end_ns,
            allocs: 0,
            alloc_bytes: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("op", None, 0, 100),
            span("a", Some(0), 10, 30),
            // Overlaps `a` by 10 ns: the union covers 10..50.
            span("b", Some(0), 20, 50),
            // Nested inside `b`'s interval but a child of the root:
            // already covered, adds nothing.
            span("c", Some(0), 25, 45),
            span("d", Some(0), 70, 80),
            // A grandchild does not count against the root.
            span("a1", Some(1), 12, 20),
        ];
        let own = self_times(&spans);
        assert_eq!(own[0], 100 - 40 - 10);
        assert_eq!(own[1], 20 - 8);
        assert_eq!(own[4], 10);
        // A child that runs past its parent is clipped to it.
        let clipped = vec![span("op", None, 0, 10), span("x", Some(0), 5, 50)];
        assert_eq!(self_times(&clipped)[0], 5);
    }

    #[test]
    fn scopes_nest_and_record_parents() {
        let mut t = Tracer::new(true);
        t.set_context(2, 7);
        let out = t.scope("op", |t| {
            t.scope("inner", |_| vec![0u8; 64].len()) + t.scope("inner", |_| 1)
        });
        assert_eq!(out, 65);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].name, s[0].parent), ("op", None));
        assert_eq!((s[1].parent, s[2].parent), (Some(0), Some(0)));
        assert!(s.iter().all(|s| s.op == 7 && s.pass == 2));
        assert!(s[0].start_ns <= s[1].start_ns && s[2].end_ns <= s[0].end_ns);
        assert_eq!(overdrawn_spans(s), 0);

        let mut off = Tracer::new(false);
        assert_eq!(off.scope("op", |_| 5), 5);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn layer_time_is_best_of_passes_per_op() {
        let mut spans = Vec::new();
        for (pass, (op0, op1)) in [(5u64, 9u64), (3, 11), (4, 8)].into_iter().enumerate() {
            for (op, ns) in [(0u32, op0), (1, op1)] {
                let mut s = span("layer", None, 0, ns * 1_000_000);
                s.pass = pass as u32;
                s.op = op;
                spans.push(s);
            }
        }
        assert_eq!(best_per_op(&spans, "layer", 2, Span::ms), vec![3.0, 8.0]);
        assert_eq!(layer_ms(&spans, "layer", 2), 11.0);
        assert_eq!(layer_ms(&spans, "absent", 2), 0.0);
    }

    #[test]
    fn overdrawn_parents_are_counted() {
        let spans = vec![
            span("op", None, 0, 10),
            span("a", Some(0), 0, 8),
            span("b", Some(0), 2, 9),
        ];
        assert_eq!(overdrawn_spans(&spans), 1);
    }
}
