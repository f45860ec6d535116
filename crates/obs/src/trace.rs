//! The span sink: nested, labelled, counter-carrying spans with a
//! disabled mode that costs one pointer check per instrumentation site.
//!
//! ## Determinism
//!
//! A recording [`Trace`] reserves each span's [`SpanRecord`] slot when
//! the span **starts** (under the sink lock) and back-fills the
//! duration, label, and counters when the span drops. On a single
//! thread, record order is therefore exactly span-start order. Workers
//! on the parallel pool do not touch the shared sink at all: they
//! record into a thread-local [`LocalSpans`] buffer that the driver
//! absorbs in deterministic batch order. The result is that the
//! *skeleton* of a trace — names, labels, depths, deterministic
//! counters, in order — is identical across thread counts; only
//! timestamps and thread lanes (which are wall-clock-class data)
//! differ.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
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
    /// Thread lane the span ran on (stable per thread, not across runs).
    pub tid: u32,
    /// Start offset from the trace epoch, microseconds.
    pub start_us: u64,
    /// Duration, microseconds.
    pub dur_us: u64,
    /// Deterministic counters attached to the span, in attach order.
    pub counters: Vec<(&'static str, u64)>,
}

struct Shared {
    epoch: Instant,
    records: Mutex<Vec<SpanRecord>>,
}

fn lock(m: &Mutex<Vec<SpanRecord>>) -> MutexGuard<'_, Vec<SpanRecord>> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

static NEXT_LANE: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static LANE: u32 = NEXT_LANE.fetch_add(1, Ordering::Relaxed);
}

fn lane() -> u32 {
    LANE.with(|l| *l)
}

/// A cloneable span sink. Cloning is cheap (an `Arc` bump) and all
/// clones feed the same buffer. The [`Default`] is disabled.
#[derive(Clone, Default)]
pub struct Trace {
    shared: Option<Arc<Shared>>,
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
        Self { shared: None }
    }

    /// A recording sink buffering [`SpanRecord`]s for export.
    pub fn recording() -> Self {
        Self {
            shared: Some(Arc::new(Shared {
                epoch: Instant::now(),
                records: Mutex::new(Vec::new()),
            })),
        }
    }

    /// Whether this sink records anything.
    pub fn is_enabled(&self) -> bool {
        self.shared.is_some()
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
        let live = self.shared.as_ref().map(|sh| {
            let mut records = lock(&sh.records);
            let idx = records.len();
            records.push(SpanRecord {
                name,
                label: String::new(),
                depth,
                tid: lane(),
                start_us: duration_us(sh.epoch, Instant::now()),
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

    /// A per-worker buffer whose spans nest at `depth`. Workers push
    /// into it without touching the shared sink; the driver calls
    /// [`Trace::absorb`] in deterministic order.
    pub fn local(&self, depth: u16) -> LocalSpans {
        LocalSpans {
            epoch: self.shared.as_ref().map(|sh| sh.epoch),
            depth,
            records: Vec::new(),
        }
    }

    /// Appends a worker buffer's spans to the sink. Call in
    /// deterministic (batch) order to keep the skeleton stable across
    /// thread counts. No-op when disabled.
    pub fn absorb(&self, local: LocalSpans) {
        if let Some(sh) = &self.shared {
            if !local.records.is_empty() {
                lock(&sh.records).extend(local.records);
            }
        }
    }

    /// Snapshot of all records so far.
    pub fn records(&self) -> Vec<SpanRecord> {
        self.shared
            .as_ref()
            .map(|sh| lock(&sh.records).clone())
            .unwrap_or_default()
    }

    /// The trace as Chrome trace-event JSON (complete "X" events),
    /// openable in Perfetto / `chrome://tracing`.
    pub fn chrome_json(&self) -> String {
        let records = self.records();
        let mut out = String::from("{\"traceEvents\":[");
        for (i, r) in records.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"ofw\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{},\"args\":{{",
                crate::json_escape(r.name),
                r.start_us,
                r.dur_us,
                r.tid,
            ));
            let mut first = true;
            if !r.label.is_empty() {
                out.push_str(&format!("\"label\":\"{}\"", crate::json_escape(&r.label)));
                first = false;
            }
            for (k, v) in &r.counters {
                if !first {
                    out.push(',');
                }
                out.push_str(&format!("\"{}\":{}", crate::json_escape(k), v));
                first = false;
            }
            out.push_str("}}");
        }
        out.push_str("]}");
        out
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

    /// The deterministic part of the trace: names, labels, depths, and
    /// counters in record order — no timestamps, no thread lanes.
    /// Identical across thread counts for the same work.
    pub fn skeleton(&self) -> String {
        let mut out = String::new();
        for r in self.records() {
            out.push_str(&format!("{}|{}|{}", r.depth, r.name, r.label));
            for (k, v) in &r.counters {
                out.push_str(&format!("|{k}={v}"));
            }
            out.push('\n');
        }
        out
    }
}

fn duration_us(epoch: Instant, now: Instant) -> u64 {
    now.saturating_duration_since(epoch).as_micros() as u64
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

    /// This span's nesting depth.
    pub fn depth(&self) -> u16 {
        self.depth
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
        let (Some((idx, started)), Some(sh)) = (self.live.take(), self.trace.shared.as_ref())
        else {
            return;
        };
        let dur = started.elapsed().as_micros() as u64;
        let mut records = lock(&sh.records);
        let r = &mut records[idx];
        r.dur_us = dur;
        if let Some(label) = self.label.take() {
            r.label = label;
        }
        r.counters = std::mem::take(&mut self.counters);
    }
}

/// A per-worker span buffer. Created by [`Trace::local`]; workers push
/// completed spans into it and the driver absorbs it in deterministic
/// order. When the trace is disabled every method is a no-op.
#[derive(Debug)]
pub struct LocalSpans {
    epoch: Option<Instant>,
    depth: u16,
    records: Vec<SpanRecord>,
}

impl LocalSpans {
    /// Marks a span start. Returns `None` when the trace is disabled
    /// (so disabled runs never call `Instant::now`).
    pub fn start(&self) -> Option<Instant> {
        self.epoch.map(|_| Instant::now())
    }

    /// Records a completed span started at `started` (from
    /// [`LocalSpans::start`]).
    pub fn push(
        &mut self,
        name: &'static str,
        label: String,
        started: Option<Instant>,
        counters: Vec<(&'static str, u64)>,
    ) {
        let (Some(epoch), Some(started)) = (self.epoch, started) else {
            return;
        };
        self.records.push(SpanRecord {
            name,
            label,
            depth: self.depth,
            tid: lane(),
            start_us: duration_us(epoch, started),
            dur_us: started.elapsed().as_micros() as u64,
            counters,
        });
    }

    /// Whether anything was recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
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
        let mut local = t.local(1);
        assert!(local.start().is_none());
        local.push("union", String::new(), local.start(), vec![]);
        t.absorb(local);
        assert!(t.records().is_empty());
        assert_eq!(t.chrome_json(), "{\"traceEvents\":[]}");
        assert!(t.summary_tree().is_empty());
        assert!(t.skeleton().is_empty());
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

    #[test]
    fn local_spans_absorb_in_push_order() {
        let t = Trace::recording();
        let root = t.span("plangen");
        let mut local = t.local(root.depth() + 1);
        let s1 = local.start();
        local.push("union", "layer 2".into(), s1, vec![("kept", 4)]);
        let s2 = local.start();
        local.push("union", "layer 2".into(), s2, vec![("kept", 1)]);
        drop(root);
        t.absorb(local);
        let sk = t.skeleton();
        assert_eq!(
            sk,
            "0|plangen|\n1|union|layer 2|kept=4\n1|union|layer 2|kept=1\n"
        );
    }

    #[test]
    fn chrome_json_is_wellformed_shape() {
        let t = Trace::recording();
        {
            let mut sp = t.span("prepare");
            sp.label("q\"8");
            sp.count("nfsm_nodes", 12);
        }
        let json = t.chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"label\":\"q\\\"8\""));
        assert!(json.contains("\"nfsm_nodes\":12"));
    }
}
