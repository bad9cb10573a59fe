//! In-memory spans recorded by the benchmark around its calls into each
//! layer, their exclusive (self) times, the additivity check and the
//! Chrome trace export.

use std::collections::BTreeMap;
use std::time::Instant;

use sdf_trace::{Event, TraceSnapshot, SCHEMA_VERSION};

/// Name of the root span of an in-process op. Its self time is the
/// benchmark's own glue between layer calls, which no layer owns.
pub const UNATTRIBUTED: &str = "op";

/// One completed span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer name (`core.parse`, `service.wire`, …).
    pub name: &'static str,
    /// Index of the enclosing span in the log.
    pub parent: Option<usize>,
    /// Identifier shared by every span of one op or request.
    pub op: u64,
    /// Track the span is drawn on (one per client connection).
    pub lane: u64,
    /// Start, in nanoseconds since the log's epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// An append-only span log, kept in memory until the run ends.
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl SpanLog {
    /// Nanoseconds since the log's epoch.
    pub fn now_ns(&self) -> u64 {
        ns(self.epoch.elapsed())
    }

    /// Records an already measured span and returns its index.
    pub fn push(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        lane: u64,
        start_ns: u64,
        dur_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            parent,
            op,
            lane,
            start_ns,
            dur_ns,
        });
        self.spans.len() - 1
    }

    /// Opens a root span for op `op`; close it with [`SpanLog::close`].
    pub fn open_root(&mut self, name: &'static str, op: u64) -> usize {
        let start = self.now_ns();
        self.push(name, None, op, 0, start, 0)
    }

    /// Ends span `index` now.
    pub fn close(&mut self, index: usize) {
        let now = self.now_ns();
        let span = &mut self.spans[index];
        span.dur_ns = now.saturating_sub(span.start_ns);
    }

    /// Runs `f` as a child span of `parent`.
    pub fn time<T>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> T) -> T {
        let start = self.now_ns();
        let value = f();
        let dur = self.now_ns().saturating_sub(start);
        let (op, lane) = (self.spans[parent].op, self.spans[parent].lane);
        self.push(name, Some(parent), op, lane, start, dur);
        value
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Nanoseconds of a duration, saturating.
pub fn ns(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Self time of every span: its duration minus the durations of its
/// direct children, clamped at zero. Children of one span run one after
/// another, so their durations do not overlap.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut self_ns: Vec<u64> = spans.iter().map(|s| s.dur_ns).collect();
    for span in spans {
        if let Some(p) = span.parent {
            self_ns[p] = self_ns[p].saturating_sub(span.dur_ns);
        }
    }
    self_ns
}

/// Total self time per layer name, skipping [`UNATTRIBUTED`] roots.
pub fn layer_totals(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut totals = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times(spans)) {
        if span.name != UNATTRIBUTED {
            *totals.entry(span.name).or_insert(0) += self_ns;
        }
    }
    totals
}

/// Root wall time against the layers' summed self times.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Additivity {
    /// Summed durations of the root spans.
    pub wall_ns: u64,
    /// Summed self times of every layer span.
    pub layers_ns: u64,
}

impl Additivity {
    /// `|layers − wall| / wall` (0 for an empty log).
    pub fn error(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        (self.layers_ns as f64 - self.wall_ns as f64).abs() / self.wall_ns as f64
    }
}

/// Checks that layer self times add up to the roots' wall time.
pub fn additivity(spans: &[Span]) -> Additivity {
    Additivity {
        wall_ns: spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.dur_ns)
            .sum(),
        layers_ns: layer_totals(spans).values().sum(),
    }
}

/// The log as a chrome://tracing / Perfetto document, through the
/// workspace's own exporter.
pub fn chrome_trace(spans: &[Span]) -> String {
    let events = spans
        .iter()
        .enumerate()
        .map(|(i, s)| Event {
            id: i as u64 + 1,
            parent: s.parent.map(|p| p as u64 + 1),
            name: s.name,
            args: vec![("op", s.op.to_string())],
            thread: s.lane + 1,
            start_ns: s.start_ns,
            dur_ns: s.dur_ns,
        })
        .collect();
    TraceSnapshot {
        schema_version: SCHEMA_VERSION,
        events,
        counters: Vec::new(),
        gauges: Vec::new(),
        histograms: Vec::new(),
    }
    .to_chrome_trace_json()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// op [0,100): a [0,30) holding g [5,15), then b [40,90).
    fn tree(root: &'static str) -> Vec<Span> {
        let mut log = SpanLog::default();
        let r = log.push(root, None, 7, 0, 0, 100);
        let a = log.push("a", Some(r), 7, 0, 0, 30);
        log.push("g", Some(a), 7, 0, 5, 10);
        log.push("b", Some(r), 7, 0, 40, 50);
        log.spans
    }

    #[test]
    fn self_times_add_up_to_the_op_span() {
        let spans = tree("service.wire");
        assert_eq!(self_times(&spans), vec![20, 20, 10, 50]);
        let sum: u64 = self_times(&spans).iter().sum();
        assert_eq!(sum, spans[0].dur_ns);
        let check = additivity(&spans);
        assert_eq!(
            check,
            Additivity {
                wall_ns: 100,
                layers_ns: 100
            }
        );
        assert_eq!(check.error(), 0.0);
    }

    #[test]
    fn unattributed_root_time_counts_against_additivity() {
        let spans = tree(UNATTRIBUTED);
        let totals = layer_totals(&spans);
        assert_eq!(totals.get("a"), Some(&20));
        assert!(!totals.contains_key(UNATTRIBUTED));
        let check = additivity(&spans);
        assert_eq!(check.layers_ns, 80);
        assert!((check.error() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn overlapping_children_are_clamped_and_reported() {
        let mut log = SpanLog::default();
        let r = log.push("service.wire", None, 1, 0, 0, 10);
        log.push("a", Some(r), 1, 0, 0, 8);
        log.push("b", Some(r), 1, 0, 2, 8);
        assert_eq!(self_times(log.spans())[0], 0);
        assert!((additivity(log.spans()).error() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn timed_children_inherit_the_op() {
        let mut log = SpanLog::default();
        let root = log.open_root(UNATTRIBUTED, 42);
        let v = log.time("core.parse", root, || 5);
        log.close(root);
        assert_eq!(v, 5);
        assert_eq!(log.spans()[1].op, 42);
        assert_eq!(log.spans()[1].parent, Some(root));
        assert!(chrome_trace(log.spans()).contains("core.parse"));
    }
}
