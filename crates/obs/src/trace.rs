//! The span sink: nested, labelled, counter-carrying spans with a
//! disabled mode that costs one pointer check per instrumentation site.
//!
//! ## Determinism
//!
//! A recording [`Trace`] reserves each span's [`SpanRecord`] slot when
//! the span **starts** and back-fills the duration, label, and counters
//! when the span drops. Record order is therefore exactly span-start
//! order, and the *skeleton* of a trace — names, labels, depths,
//! deterministic counters, in order — is a pure function of the work;
//! only durations (which are wall-clock-class data) vary. A sink and
//! its clones stay on the thread that made them: nothing the stack
//! traces runs off the calling thread.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// One recorded span: a named, labelled interval with counters.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// Static span name (the taxonomy: "plangen", "prepare", "prune_fds",
    /// "nfsm", "determinize", "intern", "extract", "base_plans", "enumerate",
    /// "dp_layer", "union", "finalize_aggregates", "pick_final", and the
    /// vectorized executor's "execute").
    pub name: &'static str,
    /// Free-form label ("layer 3", enumerator name, ...). Empty if unset.
    pub label: String,
    /// Nesting depth (0 = root).
    pub depth: u16,
    /// Duration, microseconds.
    pub dur_us: u64,
    /// Deterministic counters attached to the span, in attach order.
    pub counters: Vec<(&'static str, u64)>,
}

/// A cloneable span sink. Cloning is cheap (an `Rc` bump) and all
/// clones feed the same buffer. The [`Default`] is disabled.
#[derive(Clone, Default)]
pub struct Trace {
    records: Option<Rc<RefCell<Vec<SpanRecord>>>>,
}

impl std::fmt::Debug for Trace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Trace")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Trace {
    /// The no-op sink: spans and counters compile down to a pointer
    /// check and recording never happens.
    pub fn disabled() -> Self {
        Self { records: None }
    }

    /// A recording sink buffering [`SpanRecord`]s.
    pub fn recording() -> Self {
        Self {
            records: Some(Rc::default()),
        }
    }

    /// Whether this sink records anything.
    pub fn is_enabled(&self) -> bool {
        self.records.is_some()
    }

    /// Opens a root-depth span. No-op (and allocation-free) when
    /// disabled.
    pub fn span(&self, name: &'static str) -> Span<'_> {
        self.span_at(name, 0)
    }

    /// Opens a span at an explicit nesting depth. Use
    /// [`Span::child`] where a parent span is in scope; this entry
    /// point exists for call sites that only know their depth (e.g.
    /// instrumented callees receiving a `&Trace`).
    pub fn span_at(&self, name: &'static str, depth: u16) -> Span<'_> {
        let live = self.records.as_ref().map(|records| {
            let mut records = records.borrow_mut();
            let idx = records.len();
            records.push(SpanRecord {
                name,
                label: String::new(),
                depth,
                dur_us: 0,
                counters: Vec::new(),
            });
            (idx, Instant::now())
        });
        Span {
            trace: self,
            depth,
            live,
            label: None,
            counters: Vec::new(),
        }
    }

    /// Snapshot of all records so far.
    pub fn records(&self) -> Vec<SpanRecord> {
        self.records
            .as_ref()
            .map(|records| records.borrow().clone())
            .unwrap_or_default()
    }

    /// A plain-text summary tree: one line per span, indented by
    /// depth, with duration and counters.
    pub fn summary_tree(&self) -> String {
        let mut out = String::new();
        for r in self.records() {
            out.push_str(&" ".repeat(2 * r.depth as usize));
            out.push_str(r.name);
            if !r.label.is_empty() {
                out.push_str(&format!(" [{}]", r.label));
            }
            out.push_str(&format!(" {:.3}ms", r.dur_us as f64 / 1e3));
            for (k, v) in &r.counters {
                out.push_str(&format!(" {k}={v}"));
            }
            out.push('\n');
        }
        out
    }
}

/// A live span handle. Dropping it closes the span and back-fills its
/// record. All methods are no-ops on a disabled sink.
pub struct Span<'t> {
    trace: &'t Trace,
    depth: u16,
    live: Option<(usize, Instant)>,
    label: Option<String>,
    counters: Vec<(&'static str, u64)>,
}

impl<'t> Span<'t> {
    /// Opens a child span one level deeper.
    pub fn child(&self, name: &'static str) -> Span<'t> {
        self.trace.span_at(name, self.depth + 1)
    }

    /// Sets the span's free-form label.
    pub fn label(&mut self, label: impl Into<String>) {
        if self.live.is_some() {
            self.label = Some(label.into());
        }
    }

    /// Attaches a deterministic counter to the span.
    pub fn count(&mut self, name: &'static str, value: u64) {
        if self.live.is_some() {
            self.counters.push((name, value));
        }
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let (Some((idx, started)), Some(records)) = (self.live.take(), self.trace.records.as_ref())
        else {
            return;
        };
        let dur = started.elapsed().as_micros() as u64;
        let mut records = records.borrow_mut();
        let r = &mut records[idx];
        r.dur_us = dur;
        if let Some(label) = self.label.take() {
            r.label = label;
        }
        r.counters = std::mem::take(&mut self.counters);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_records_nothing() {
        let t = Trace::disabled();
        assert!(!t.is_enabled());
        {
            let mut sp = t.span("root");
            sp.label("ignored");
            sp.count("n", 7);
            let _child = sp.child("inner");
        }
        assert!(t.records().is_empty());
        assert!(t.summary_tree().is_empty());
    }

    #[test]
    fn recording_trace_preserves_start_order_and_depth() {
        let t = Trace::recording();
        {
            let mut root = t.span("plangen");
            root.label("serial threads=1");
            root.count("plans", 3);
            {
                let mut c1 = root.child("base_plans");
                c1.count("plans", 2);
            }
            let _c2 = root.child("enumerate");
        }
        let records = t.records();
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].name, "plangen");
        assert_eq!(records[0].depth, 0);
        assert_eq!(records[0].label, "serial threads=1");
        assert_eq!(records[0].counters, vec![("plans", 3)]);
        assert_eq!(records[1].name, "base_plans");
        assert_eq!(records[1].depth, 1);
        assert_eq!(records[2].name, "enumerate");
        // Records are reserved at start: the root (opened first) comes
        // first even though it closed last.
        assert!(records[0].dur_us >= records[1].dur_us);
    }
}
