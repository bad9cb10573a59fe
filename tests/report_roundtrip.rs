//! Round-trip tests for the machine-readable exports: the engine report
//! JSON and both trace exports must parse with the workspace's own JSON
//! parser and preserve the key fields.

use std::sync::Arc;

use sdfmem::apps::dsp::cd_to_dat;
use sdfmem::trace::json::{parse, Json};
use sdfmem::trace::{Recorder, SCHEMA_VERSION};
use sdfmem::AnalysisBuilder;

fn counter(report: &Json, name: &str) -> u64 {
    report
        .get("counters")
        .and_then(|c| c.get(name))
        .and_then(Json::as_num)
        .unwrap_or_else(|| panic!("counter {name} missing")) as u64
}

#[test]
fn engine_report_json_round_trips() {
    let graph = cd_to_dat();
    let recorder = Arc::new(Recorder::new());
    // Serial, so a thread-scoped recorder sees the whole run. A global
    // one would also trace the untraced run of the test beside it.
    let synthesis = sdfmem::trace::scoped_thread(&recorder, || {
        AnalysisBuilder::new().parallel(false).run_full(&graph)
    })
    .expect("engine");
    let text = synthesis.report.to_json();
    let json = parse(&text).expect("report JSON parses");

    assert_eq!(
        json.get("schema_version").and_then(Json::as_num),
        Some(f64::from(SCHEMA_VERSION))
    );
    assert_eq!(
        json.get("graph").and_then(Json::as_str),
        Some("cd2dat"),
        "{text}"
    );
    let candidates = json
        .get("candidates")
        .and_then(Json::as_array)
        .expect("candidates array");
    assert!(!candidates.is_empty());
    for candidate in candidates {
        assert!(candidate.get("heuristic").and_then(Json::as_str).is_some());
        assert!(candidate
            .get("shared_total")
            .and_then(Json::as_num)
            .is_some());
        let timings = candidate.get("timings").expect("per-candidate timings");
        for stage in [
            "schedule_us",
            "lifetime_us",
            "wig_us",
            "alloc_us",
            "total_us",
        ] {
            assert!(
                timings.get(stage).and_then(Json::as_num).is_some(),
                "missing timings.{stage} in {text}"
            );
        }
    }
    // The top-level winner indexes a candidate flagged as the winner.
    let winner = json.get("winner").and_then(Json::as_num).expect("winner") as usize;
    assert_eq!(
        candidates[winner].get("winner").and_then(Json::as_bool),
        Some(true)
    );
    assert!(json.get("total_us").and_then(Json::as_num).is_some());

    // The traced run must surface non-trivial work from every pipeline
    // stage (the acceptance bar: DP cells, WIG edge tests and first-fit
    // probes all positive on a non-trivial graph).
    assert!(counter(&json, "sched.dppo.cells") > 0);
    assert!(counter(&json, "lifetime.wig.edge_tests") > 0);
    assert!(counter(&json, "alloc.first_fit.probes") > 0);
    assert!(counter(&json, "engine.candidates") > 0);
}

#[test]
fn untraced_report_has_empty_counters_object() {
    let graph = cd_to_dat();
    let synthesis = AnalysisBuilder::new()
        .parallel(false)
        .run_full(&graph)
        .expect("engine");
    let json = parse(&synthesis.report.to_json()).expect("report JSON parses");
    let counters = json.get("counters").expect("counters key present");
    assert_eq!(counters.members().map(<[_]>::len), Some(0));
}

#[test]
fn chrome_trace_round_trips_with_nested_candidate_spans() {
    let graph = cd_to_dat();
    let recorder = Arc::new(Recorder::new());
    sdfmem::trace::scoped_thread(&recorder, || {
        AnalysisBuilder::new().parallel(false).run_full(&graph)
    })
    .expect("engine");
    let snapshot = recorder.snapshot();

    let chrome = parse(&snapshot.to_chrome_trace_json()).expect("chrome JSON parses");
    assert_eq!(
        chrome.get("schema_version").and_then(Json::as_num),
        Some(f64::from(SCHEMA_VERSION))
    );
    let events = chrome
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents array");
    let span = |name: &str| {
        events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some(name))
            .unwrap_or_else(|| panic!("no {name} span"))
    };
    // With serial evaluation every candidate stage nests (by time
    // containment) inside its candidate, which nests inside the run.
    let run = span("engine.run");
    let candidate = span("engine.candidate");
    let alloc = span("candidate.alloc");
    let contains = |outer: &Json, inner: &Json| {
        let ts = |e: &Json| e.get("ts").and_then(Json::as_num).unwrap();
        let end = |e: &Json| ts(e) + e.get("dur").and_then(Json::as_num).unwrap();
        ts(outer) <= ts(inner) && end(inner) <= end(outer)
    };
    assert!(contains(run, candidate));
    assert!(contains(candidate, alloc));

    let jsonl = snapshot.to_jsonl();
    let mut span_lines = 0usize;
    for line in jsonl.lines() {
        let parsed = parse(line).expect("every JSONL line parses");
        if parsed.get("type").and_then(Json::as_str) == Some("span") {
            span_lines += 1;
        }
    }
    assert_eq!(span_lines, snapshot.events.len());
}
