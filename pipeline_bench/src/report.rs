//! Metric rows, the result line, and the append-only trajectory.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

/// Every end-to-end metric, with its unit, as `BENCHMARK.json` lists them.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("latency_ms.p50", "ms"),
    ("latency_ms.p95", "ms"),
    ("compile_ms.geomean", "ms"),
    ("max_rate_rps", "1/s"),
    ("shared_pool_words", "words"),
    ("peak_rss_mb", "MB"),
];

/// Every per-layer metric, with its unit, as `BENCHMARK.json` lists them.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("core.parse.self_ms", "ms"),
    ("core.repetitions.self_ms", "ms"),
    ("sched.order.self_ms", "ms"),
    ("sched.chain_tables.self_ms", "ms"),
    ("sched.dppo.self_ms", "ms"),
    ("sched.dppo.probes_per_cell", "ratio"),
    ("sched.sdppo.self_ms", "ms"),
    ("sched.sdppo.cells", "count"),
    ("sched.sdppo.probes_per_cell", "ratio"),
    ("lifetime.tree.self_ms", "ms"),
    ("lifetime.wig.self_ms", "ms"),
    ("lifetime.wig.edge_tests", "count"),
    ("lifetime.wig.conflicts", "count"),
    ("lifetime.clique.self_ms", "ms"),
    ("alloc.first_fit.self_ms", "ms"),
    ("alloc.first_fit.probes", "count"),
    ("alloc.first_fit.fragmentation_words", "words"),
    ("codegen.plan.self_ms", "ms"),
    ("codegen.oracle.self_ms", "ms"),
    ("codegen.oracle.firings", "count"),
    ("codegen.render.self_ms", "ms"),
    ("service.render.self_ms", "ms"),
    ("engine.overhead_ms", "ms"),
    ("engine.parallel_speedup", "ratio"),
    ("engine.dppo_memo_hit_ratio", "ratio"),
    ("service.wire.self_ms", "ms"),
    ("service.queue.wait_ms.p95", "ms"),
    ("service.worker.self_ms", "ms"),
    ("service.cache.hit_ratio", "ratio"),
    ("service.session.delta_ratio", "ratio"),
    ("loadgen.lag_ms.p95", "ms"),
    ("loadgen.late_frac", "ratio"),
    ("trace.op_ms", "ms"),
    ("trace.additivity_error", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.ops", "count"),
];

/// One printed metric.
#[derive(Clone, Debug)]
pub struct Row {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Workload name.
    pub workload: String,
    /// Metrics in print order.
    pub rows: Vec<Row>,
    /// Operations or requests attempted.
    pub attempted: u64,
    /// Of those, the ones that failed.
    pub failed: u64,
    /// Correctness failures, each naming its input.
    pub problems: Vec<String>,
}

impl Report {
    /// An empty report for `workload`.
    pub fn new(workload: &str) -> Report {
        Report {
            workload: workload.to_string(),
            ..Report::default()
        }
    }

    /// Records a metric; non-finite values are recorded as 0.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.rows.push(Row {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Records every [`PER_LAYER`] metric from `values` (0 for a layer
    /// the workload does not exercise), then any other layer self time.
    pub fn layers(&mut self, values: &BTreeMap<String, f64>) {
        for (name, unit) in PER_LAYER {
            self.metric(name, values.get(name).copied().unwrap_or(0.0), unit);
        }
        for (name, value) in values {
            if !PER_LAYER.iter().any(|(n, _)| n == name) {
                self.metric(name.clone(), *value, "ms");
            }
        }
    }

    /// Records a correctness failure.
    pub fn problem(&mut self, message: impl Into<String>) {
        self.problems.push(message.into());
    }

    /// The last recorded value of `name`.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.rows
            .iter()
            .rev()
            .find(|r| r.name == name)
            .map(|r| r.value)
    }

    /// Whether every output was correct.
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    /// The `workload metric value unit` lines.
    pub fn text(&self) -> String {
        let mut s = String::new();
        for r in &self.rows {
            let _ = writeln!(s, "{} {} {} {}", self.workload, r.name, r.value, r.unit);
        }
        s
    }

    /// The result line: `correct`, `attempted`, `failed`, and the
    /// `metrics` of `names` (every one must have been recorded).
    pub fn result_json(&self, names: &[(&str, &str)]) -> String {
        let mut s = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, unit)) in names.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let value = self.value(name).unwrap_or(0.0);
            let _ = write!(s, "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}");
        }
        s.push_str("}}");
        s
    }
}

/// Appends one point to the trajectory at `path`: a single JSON line.
/// Existing lines are never read back or rewritten.
///
/// # Errors
///
/// The I/O error, when the file cannot be opened or written.
pub fn append_point(path: &Path, point: &str) -> std::io::Result<()> {
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    file.write_all(format!("{}\n", point.trim_end()).as_bytes())?;
    file.sync_all()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_lists_the_named_metrics() {
        let mut r = Report::new("corpus");
        r.metric("setup_s", 0.5, "s");
        r.metric("extra", 1.0, "count");
        r.metric("nan", f64::NAN, "ms");
        r.attempted = 3;
        let line = r.result_json(&[("setup_s", "s")]);
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\
             \"metrics\":{\"setup_s\":{\"value\":0.5,\"unit\":\"s\"}}}"
        );
        assert_eq!(r.value("nan"), Some(0.0));
        assert!(r.text().starts_with("corpus setup_s 0.5 s\n"));
        r.problem("satrec: oracle violation");
        assert!(r.result_json(&[]).starts_with("{\"correct\":false"));
    }

    #[test]
    fn append_never_rewrites_existing_points() {
        let dir =
            std::env::temp_dir().join(format!("pipeline_bench_append_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("trajectory.jsonl");
        let _ = std::fs::remove_file(&path);
        append_point(&path, "{\"seed\":1}").expect("first append");
        let first = std::fs::read(&path).expect("read back");
        append_point(&path, "{\"seed\":2}\n").expect("second append");
        let both = std::fs::read(&path).expect("read back");
        assert_eq!(&both[..first.len()], &first[..], "existing bytes changed");
        assert_eq!(
            String::from_utf8(both).expect("utf-8"),
            "{\"seed\":1}\n{\"seed\":2}\n"
        );
        std::fs::remove_dir_all(&dir).expect("clean up");
    }
}
