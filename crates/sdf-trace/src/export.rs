//! Exporters for recorded traces.
//!
//! A [`TraceSnapshot`] (obtained from [`Recorder::snapshot`]) can be
//! rendered three ways:
//!
//! * [`to_chrome_trace_json`](TraceSnapshot::to_chrome_trace_json) — the
//!   chrome://tracing `trace_events` format, loadable in Perfetto
//!   (<https://ui.perfetto.dev>) or `chrome://tracing`;
//! * [`to_jsonl`](TraceSnapshot::to_jsonl) — one JSON object per line,
//!   convenient for `grep`/`jq`-style post-processing;
//! * [`profile_tree`](TraceSnapshot::profile_tree) and
//!   [`counter_table`](TraceSnapshot::counter_table) — human-readable
//!   text used by `sdfmem profile`.
//!
//! [`Recorder::snapshot`]: crate::Recorder::snapshot

use crate::json::{self, Writer};
use crate::metrics::Histogram;
use crate::Event;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt::Write as _;

/// A consistent copy of everything one [`Recorder`](crate::Recorder)
/// collected: completed spans (sorted by start time) plus final
/// instrument values.
#[derive(Clone, Debug)]
pub struct TraceSnapshot {
    /// Format version stamped into every export
    /// ([`SCHEMA_VERSION`](crate::SCHEMA_VERSION)).
    pub schema_version: u32,
    /// Completed spans, sorted by `(start_ns, id)`.
    pub events: Vec<Event>,
    /// Final counter values, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Final gauge values, sorted by name.
    pub gauges: Vec<(String, u64)>,
    /// Final histograms, sorted by name.
    pub histograms: Vec<(String, Histogram)>,
}

/// Nanoseconds rendered human-readably with an adaptive unit.
///
/// # Examples
///
/// ```
/// assert_eq!(sdf_trace::export::human_time(2_500_000), "2.500ms");
/// ```
pub fn human_time(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{}.{:03}s", ns / 1_000_000_000, (ns / 1_000_000) % 1_000)
    } else if ns >= 1_000_000 {
        format!("{}.{:03}ms", ns / 1_000_000, (ns / 1_000) % 1_000)
    } else if ns >= 1_000 {
        format!("{}.{:03}µs", ns / 1_000, ns % 1_000)
    } else {
        format!("{ns}ns")
    }
}

/// A span's key-value annotations as a JSON object member.
fn args(w: &mut Writer, args: &[(&'static str, String)]) {
    w.object("args", |w| {
        for (key, value) in args {
            w.str(key, value);
        }
    });
}

/// A counter track for the chrome trace export: a named step series of
/// `(timestamp, value)` points rendered by Perfetto as a filled counter
/// lane (`"ph":"C"` events) alongside the span tracks.
///
/// Timestamps are in the export's native microseconds; callers plotting
/// logical (schedule-clock) series rather than wall time simply use one
/// microsecond per logical step.
#[derive(Clone, Debug)]
pub struct CounterTrack {
    /// Track (and counter series) name.
    pub name: String,
    /// `(timestamp_us, value)` step points, ascending in time.
    pub points: Vec<(u64, u64)>,
}

impl TraceSnapshot {
    /// Renders the snapshot as a chrome://tracing `trace_events` JSON
    /// document (object form). Each completed span becomes a `"ph":"X"`
    /// (complete) event with microsecond `ts`/`dur`; viewers infer
    /// nesting from time containment per `tid`. Counters, gauges and
    /// histograms ride along as top-level sections that Perfetto
    /// ignores but downstream tools can parse.
    pub fn to_chrome_trace_json(&self) -> String {
        self.to_chrome_trace_json_with_tracks(&[])
    }

    /// Like [`to_chrome_trace_json`](Self::to_chrome_trace_json), but
    /// additionally renders each [`CounterTrack`] as a series of
    /// `"ph":"C"` counter events, which Perfetto draws as a dedicated
    /// counter lane (used for the pool occupancy timeline).
    pub fn to_chrome_trace_json_with_tracks(&self, tracks: &[CounterTrack]) -> String {
        json::object(|w| {
            w.num("schema_version", self.schema_version)
                .str("displayTimeUnit", "ms");
            w.array("traceEvents", |w| {
                for e in &self.events {
                    w.item_object(|w| {
                        w.str("name", e.name)
                            .str("cat", "sdf")
                            .str("ph", "X")
                            .num("pid", 1)
                            .num("tid", e.thread)
                            .us("ts", e.start_ns)
                            .us("dur", e.dur_ns);
                        args(w, &e.args);
                    });
                }
                for track in tracks {
                    for &(ts, value) in &track.points {
                        w.item_object(|w| {
                            w.str("name", &track.name)
                                .str("cat", "sdf")
                                .str("ph", "C")
                                .num("pid", 1)
                                .num("ts", ts)
                                .object("args", |w| {
                                    w.num(&track.name, value);
                                });
                        });
                    }
                }
            });
            w.counters("counters", &self.counters)
                .counters("gauges", &self.gauges)
                .histograms("histograms", &self.histograms);
        })
    }

    /// Renders the snapshot as a JSONL stream: a `header` line, one
    /// `span` line per event (in start order), then one line per
    /// counter, gauge and histogram.
    pub fn to_jsonl(&self) -> String {
        json::lines(|w| {
            w.line(|w| {
                w.str("type", "header")
                    .num("schema_version", self.schema_version)
                    .num("events", self.events.len());
            });
            for e in &self.events {
                w.line(|w| {
                    w.str("type", "span").num("id", e.id);
                    match e.parent {
                        Some(p) => w.num("parent", p),
                        None => w.raw("parent", "null"),
                    };
                    w.str("name", e.name)
                        .num("thread", e.thread)
                        .num("start_ns", e.start_ns)
                        .num("dur_ns", e.dur_ns);
                    args(w, &e.args);
                });
            }
            for (kind, rows) in [("counter", &self.counters), ("gauge", &self.gauges)] {
                for (name, value) in rows {
                    w.line(|w| {
                        w.str("type", kind).str("name", name).num("value", value);
                    });
                }
            }
            for (name, h) in &self.histograms {
                w.line(|w| {
                    w.str("type", "histogram").str("name", name).histogram(h);
                });
            }
        })
    }

    /// Renders the span hierarchy as an indented text tree with
    /// inclusive and exclusive (self) times. Spans with the same name
    /// under the same parent are merged into one line with a call
    /// count; siblings are sorted by inclusive time, descending.
    pub fn profile_tree(&self) -> String {
        let known: HashSet<u64> = self.events.iter().map(|e| e.id).collect();
        // Group event indices by effective parent. A parent id we never
        // saw (its guard was still open at snapshot time) makes the
        // child a root rather than an orphan.
        let mut children: HashMap<Option<u64>, Vec<usize>> = HashMap::new();
        for (i, e) in self.events.iter().enumerate() {
            let parent = e.parent.filter(|p| known.contains(p));
            children.entry(parent).or_default().push(i);
        }

        struct Agg {
            name: &'static str,
            calls: u64,
            inclusive: u64,
            exclusive: u64,
            children: Vec<Agg>,
        }

        fn aggregate(
            events: &[Event],
            children: &HashMap<Option<u64>, Vec<usize>>,
            siblings: &[usize],
        ) -> Vec<Agg> {
            // Merge same-name siblings; BTreeMap gives deterministic
            // order before the by-time sort below.
            let mut groups: BTreeMap<&'static str, Vec<usize>> = BTreeMap::new();
            for &i in siblings {
                groups.entry(events[i].name).or_default().push(i);
            }
            let mut aggs: Vec<Agg> = groups
                .into_iter()
                .map(|(name, indices)| {
                    let inclusive = indices
                        .iter()
                        .fold(0u64, |acc, &i| acc.saturating_add(events[i].dur_ns));
                    let mut child_indices = Vec::new();
                    for &i in &indices {
                        if let Some(c) = children.get(&Some(events[i].id)) {
                            child_indices.extend_from_slice(c);
                        }
                    }
                    let child_aggs = aggregate(events, children, &child_indices);
                    let child_total = child_aggs
                        .iter()
                        .fold(0u64, |acc, c| acc.saturating_add(c.inclusive));
                    Agg {
                        name,
                        calls: indices.len() as u64,
                        inclusive,
                        exclusive: inclusive.saturating_sub(child_total),
                        children: child_aggs,
                    }
                })
                .collect();
            aggs.sort_by(|a, b| b.inclusive.cmp(&a.inclusive).then(a.name.cmp(b.name)));
            aggs
        }

        fn render(out: &mut Vec<(String, u64, u64, u64)>, aggs: &[Agg], depth: usize) {
            for a in aggs {
                out.push((
                    format!("{}{}", "  ".repeat(depth), a.name),
                    a.inclusive,
                    a.exclusive,
                    a.calls,
                ));
                render(out, &a.children, depth + 1);
            }
        }

        let roots = children.get(&None).cloned().unwrap_or_default();
        let aggs = aggregate(&self.events, &children, &roots);
        let mut rows = Vec::new();
        render(&mut rows, &aggs, 0);

        let mut out = String::new();
        if rows.is_empty() {
            out.push_str("no spans recorded\n");
            return out;
        }
        let name_width = rows.iter().map(|r| r.0.len()).max().unwrap_or(0).max(4);
        let _ = writeln!(
            out,
            "{:<name_width$}  {:>12}  {:>12}  {:>7}",
            "span", "inclusive", "exclusive", "calls"
        );
        for (label, inclusive, exclusive, calls) in &rows {
            let _ = writeln!(
                out,
                "{:<name_width$}  {:>12}  {:>12}  {:>7}",
                label,
                human_time(*inclusive),
                human_time(*exclusive),
                calls
            );
        }
        out
    }

    /// Renders all instruments as an aligned text table: counters,
    /// gauges, then histograms with their occupied buckets.
    pub fn counter_table(&self) -> String {
        let mut out = String::new();
        if self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty() {
            out.push_str("no instruments recorded\n");
            return out;
        }
        let width = self
            .counters
            .iter()
            .map(|(n, _)| n.len())
            .chain(self.gauges.iter().map(|(n, _)| n.len()))
            .max()
            .unwrap_or(0)
            .max(7);
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (name, value) in &self.counters {
                let _ = writeln!(out, "  {name:<width$}  {value:>12}");
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            for (name, value) in &self.gauges {
                let _ = writeln!(out, "  {name:<width$}  {value:>12}");
            }
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(out, "histogram {name}: count={} sum={}", h.count(), h.sum());
            for (lo, hi, count) in h.nonzero_buckets() {
                let _ = writeln!(out, "  [{lo}, {hi})  {count}");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};

    fn sample() -> TraceSnapshot {
        let mut h = Histogram::default();
        h.record(3);
        h.record(100);
        TraceSnapshot {
            schema_version: crate::SCHEMA_VERSION,
            events: vec![
                Event {
                    id: 1,
                    parent: None,
                    name: "engine.run",
                    args: vec![("graph", "fig\"2".to_string())],
                    thread: 1,
                    start_ns: 0,
                    dur_ns: 5_000_000,
                },
                Event {
                    id: 2,
                    parent: Some(1),
                    name: "candidate.schedule",
                    args: vec![],
                    thread: 1,
                    start_ns: 1_000,
                    dur_ns: 1_500_000,
                },
                Event {
                    id: 3,
                    parent: Some(2),
                    name: "sched.dppo",
                    args: vec![],
                    thread: 1,
                    start_ns: 2_000,
                    dur_ns: 900_000,
                },
                Event {
                    id: 4,
                    parent: Some(1),
                    name: "candidate.schedule",
                    args: vec![],
                    thread: 1,
                    start_ns: 2_600_000,
                    dur_ns: 800_000,
                },
            ],
            counters: vec![("sched.dppo.cells".to_string(), 21)],
            gauges: vec![("alloc.fragmentation_words".to_string(), 4)],
            histograms: vec![("alloc.buffer_words".to_string(), h)],
        }
    }

    #[test]
    fn chrome_trace_is_valid_json_with_expected_fields() {
        let snap = sample();
        let doc = parse(&snap.to_chrome_trace_json()).expect("valid JSON");
        assert_eq!(
            doc.get("schema_version").and_then(Json::as_num),
            Some(f64::from(crate::SCHEMA_VERSION))
        );
        let events = doc.get("traceEvents").and_then(Json::as_array).unwrap();
        assert_eq!(events.len(), 4);
        let first = &events[0];
        assert_eq!(first.get("name").and_then(Json::as_str), Some("engine.run"));
        assert_eq!(first.get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(first.get("ts").and_then(Json::as_num), Some(0.0));
        assert_eq!(first.get("dur").and_then(Json::as_num), Some(5000.0));
        assert_eq!(
            first
                .get("args")
                .and_then(|a| a.get("graph"))
                .and_then(Json::as_str),
            Some("fig\"2")
        );
        assert_eq!(
            doc.get("counters")
                .and_then(|c| c.get("sched.dppo.cells"))
                .and_then(Json::as_num),
            Some(21.0)
        );
        let hist = doc
            .get("histograms")
            .and_then(|h| h.get("alloc.buffer_words"))
            .unwrap();
        assert_eq!(hist.get("count").and_then(Json::as_num), Some(2.0));
        assert_eq!(hist.get("sum").and_then(Json::as_num), Some(103.0));
    }

    #[test]
    fn counter_tracks_render_as_c_events() {
        let snap = sample();
        let tracks = vec![CounterTrack {
            name: "pool.occupied_words".to_string(),
            points: vec![(0, 40), (4, 60), (8, 0)],
        }];
        let doc = parse(&snap.to_chrome_trace_json_with_tracks(&tracks)).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(Json::as_array).unwrap();
        // 4 spans + 3 counter points.
        assert_eq!(events.len(), 7);
        let c = &events[4];
        assert_eq!(c.get("ph").and_then(Json::as_str), Some("C"));
        assert_eq!(
            c.get("name").and_then(Json::as_str),
            Some("pool.occupied_words")
        );
        assert_eq!(
            c.get("args")
                .and_then(|a| a.get("pool.occupied_words"))
                .and_then(Json::as_num),
            Some(40.0)
        );
        let last = &events[6];
        assert_eq!(last.get("ts").and_then(Json::as_num), Some(8.0));
        // Tracks on an empty snapshot still produce a valid document.
        let empty = TraceSnapshot {
            schema_version: crate::SCHEMA_VERSION,
            events: vec![],
            counters: vec![],
            gauges: vec![],
            histograms: vec![],
        };
        parse(&empty.to_chrome_trace_json_with_tracks(&tracks)).expect("valid JSON");
    }

    #[test]
    fn jsonl_lines_all_parse() {
        let snap = sample();
        let jsonl = snap.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        // header + 4 spans + 1 counter + 1 gauge + 1 histogram
        assert_eq!(lines.len(), 8);
        for line in &lines {
            parse(line).expect("each JSONL line is valid JSON");
        }
        let header = parse(lines[0]).unwrap();
        assert_eq!(header.get("type").and_then(Json::as_str), Some("header"));
        assert_eq!(
            header.get("schema_version").and_then(Json::as_num),
            Some(f64::from(crate::SCHEMA_VERSION))
        );
        let child = parse(lines[2]).unwrap();
        assert_eq!(child.get("parent").and_then(Json::as_num), Some(1.0));
    }

    #[test]
    fn profile_tree_merges_and_nests() {
        let snap = sample();
        let tree = snap.profile_tree();
        let lines: Vec<&str> = tree.lines().collect();
        // header + engine.run + candidate.schedule (merged) + sched.dppo
        assert_eq!(lines.len(), 4);
        assert!(lines[1].starts_with("engine.run"));
        assert!(lines[2].starts_with("  candidate.schedule"));
        assert!(lines[2].contains("2")); // two merged calls
        assert!(lines[3].starts_with("    sched.dppo"));
        // engine.run exclusive = 5ms - (1.5ms + 0.8ms) = 2.7ms
        assert!(lines[1].contains("5.000ms"));
        assert!(lines[1].contains("2.700ms"));
        // merged candidate.schedule inclusive = 2.3ms, exclusive 1.4ms
        assert!(lines[2].contains("2.300ms"));
        assert!(lines[2].contains("1.400ms"));
    }

    #[test]
    fn orphan_parents_become_roots() {
        let snap = TraceSnapshot {
            schema_version: crate::SCHEMA_VERSION,
            events: vec![Event {
                id: 9,
                parent: Some(1_000_000),
                name: "stranded",
                args: vec![],
                thread: 3,
                start_ns: 10,
                dur_ns: 20,
            }],
            counters: vec![],
            gauges: vec![],
            histograms: vec![],
        };
        let tree = snap.profile_tree();
        assert!(tree.lines().nth(1).unwrap().starts_with("stranded"));
    }

    #[test]
    fn counter_table_lists_all_instruments() {
        let table = sample().counter_table();
        assert!(table.contains("counters:"));
        assert!(table.contains("sched.dppo.cells"));
        assert!(table.contains("21"));
        assert!(table.contains("gauges:"));
        assert!(table.contains("alloc.fragmentation_words"));
        assert!(table.contains("histogram alloc.buffer_words: count=2 sum=103"));
        assert!(table.contains("[2, 4)  1"));
        assert!(table.contains("[64, 128)  1"));
    }

    #[test]
    fn empty_snapshot_renders_placeholders() {
        let snap = TraceSnapshot {
            schema_version: crate::SCHEMA_VERSION,
            events: vec![],
            counters: vec![],
            gauges: vec![],
            histograms: vec![],
        };
        assert_eq!(snap.profile_tree(), "no spans recorded\n");
        assert_eq!(snap.counter_table(), "no instruments recorded\n");
        parse(&snap.to_chrome_trace_json()).expect("empty trace still valid JSON");
    }

    #[test]
    fn human_time_units() {
        assert_eq!(human_time(0), "0ns");
        assert_eq!(human_time(999), "999ns");
        assert_eq!(human_time(1_000), "1.000µs");
        assert_eq!(human_time(2_500_000), "2.500ms");
        assert_eq!(human_time(3_040_000_000), "3.040s");
    }
}
