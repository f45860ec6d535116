//! # ofw-obs — structured tracing and decision telemetry
//!
//! A dependency-free observability layer for the optimizer stack:
//!
//! - [`Trace`] — a cloneable span sink. The default ([`Trace::disabled`])
//!   is a `None` behind an `Option<Rc<..>>`, so every instrumentation
//!   site reduces to one branch on a pointer check and the hot path
//!   stays byte-identical in behaviour. [`Trace::recording`] buffers
//!   [`SpanRecord`]s, read back by [`Trace::records`] and printed as a
//!   plain-text summary tree ([`Trace::summary_tree`]).
//! - [`metrics`] — plain-old-data counters for optimizer decisions:
//!   Pareto pruning per comparability class ([`PruneCounters`]),
//!   enforcer admissions/wins ([`EnforcerCounters`]), oracle probe
//!   counts ([`ProbeCounters`]), all bundled as [`DecisionCounters`]
//!   and aggregated per phase in [`PhaseStats`].
//!
//! Determinism contract: records are appended at span *start* (the
//! index is reserved then; duration is back-filled on drop), so the
//! records' names, labels, depths and counters are identical for the
//! same work; only durations are wall-clock-class data.

#![forbid(unsafe_code)]

pub mod metrics;
pub mod trace;

pub use metrics::{
    DecisionCounters, EnforcerCounters, PhaseStats, ProbeCounters, PruneCounters, AGG_CLASSES,
};
pub use trace::{Span, SpanRecord, Trace};

/// Escapes a string for embedding in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
        assert_eq!(json_escape("plain"), "plain");
    }
}
