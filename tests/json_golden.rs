//! Byte-level golden corpus for every JSON document the workspace
//! emits.
//!
//! Each case renders one document and compares it, byte for byte, with
//! the committed fixture under `tests/golden/json/`. Clock- and
//! host-dependent fields (`*_ns`, timing statistics, `threads`) are
//! pinned in the structs before rendering; the output text itself is
//! never normalised, so escaping, separators, number formats and
//! trailing newlines are all part of the contract.

use sdf_service::{
    execute_request, lower_plan, ErrorCode, MemoryModel, OrderMethod, RequestTelemetry,
    ResponsePayload, ServiceError, ServiceRequest, ServiceResponse,
};
use sdfmem::core::io::parse_graph;
use sdfmem::regress::{diff, DiffOptions, Outcomes, Profile, TimingStat};
use sdfmem::trace::{
    CacheStatus, CounterTrack, Event, FlightRecord, Histogram, StageSpan, TraceSnapshot,
    SCHEMA_VERSION,
};
use sdfmem::AnalysisBuilder;

const FIG2: &str = "graph fig2\nedge A B 20 10\nedge B C 20 10\n";

/// Nanosecond values that exercise the microsecond format: zero, sub-µs,
/// exact µs, ragged fractions and a multi-day duration.
const PINNED_NS: [u64; 7] = [0, 7, 999, 1_000, 1_234_567, 86_400_000_000_001, 42_042];

fn pinned(i: usize) -> u64 {
    PINNED_NS[i % PINNED_NS.len()]
}

fn fixture_path(name: &str) -> String {
    format!("{}/tests/golden/json/{name}", env!("CARGO_MANIFEST_DIR"))
}

fn check(name: &str, actual: &str) {
    let path = fixture_path(name);
    let expected =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    assert!(
        actual == expected,
        "{name}: rendered bytes differ from {path}\n--- expected\n{expected}\n--- actual\n{actual}"
    );
}

fn example(name: &str) -> String {
    let path = format!("{}/examples/graphs/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

fn payload(request: &ServiceRequest) -> ResponsePayload {
    match execute_request(request) {
        ServiceResponse::Ok(payload) => payload,
        other => panic!("{} failed with status {}", request.op(), other.status()),
    }
}

#[test]
fn engine_report() {
    let graph = parse_graph(FIG2).expect("graph");
    let mut synthesis = AnalysisBuilder::new()
        .parallel(false)
        .run_full(&graph)
        .expect("engine");
    let report = &mut synthesis.report;
    report.graph = "fig2 \"golden\"\n".to_string();
    report.threads = 4;
    report.repetitions_ns = pinned(4);
    report.total_ns = pinned(5);
    for (i, order) in report.orders.iter_mut().enumerate() {
        order.order_ns = pinned(i);
        order.dppo_ns = pinned(i + 3);
    }
    for (i, candidate) in report.candidates.iter_mut().enumerate() {
        candidate.timings.schedule_ns = pinned(i);
        candidate.timings.lifetime_ns = pinned(i + 1);
        candidate.timings.wig_ns = pinned(i + 2);
        candidate.timings.alloc_ns = pinned(i + 3);
        candidate.counters = if i == 0 {
            vec![
                ("sched.sdppo.cells".to_string(), 6),
                ("sched.sdppo.probes".to_string(), 0),
            ]
        } else {
            Vec::new()
        };
    }
    report.counters = vec![
        ("alloc.first_fit.probes".to_string(), 3),
        ("engine.candidates".to_string(), u64::MAX),
    ];
    check("engine_report.json", &report.to_json());
}

#[test]
fn executable_plans() {
    let graph = parse_graph(&example("cd_dat.sdf")).expect("graph");
    let shared = lower_plan(&graph, OrderMethod::Apgan, MemoryModel::Shared).expect("plan");
    check("executable_plan_shared.json", &shared.to_json());
    let graph = parse_graph("graph delays\nedge A B 2 3 delay 4\nedge B C 1 2\n").expect("graph");
    let nonshared = lower_plan(&graph, OrderMethod::Rpmc, MemoryModel::NonShared).expect("plan");
    check("executable_plan_nonshared.json", &nonshared.to_json());
}

#[test]
fn simulation_reports() {
    let request = ServiceRequest::Simulate {
        graph: example("cd_dat.sdf"),
        method: OrderMethod::Rpmc,
        model: MemoryModel::Shared,
    };
    check("simulation_report.json", &payload(&request).to_json());
    let graph = parse_graph(FIG2).expect("graph");
    let plan = lower_plan(&graph, OrderMethod::Apgan, MemoryModel::NonShared).expect("plan");
    let failed = ResponsePayload::Simulate {
        plan: Box::new(plan),
        exec: Err("edge A->B: read of \"stale\" token\tat firing 3".to_string()),
    };
    check("simulation_report_error.json", &failed.to_json());
}

#[test]
fn allocation_explain() {
    let request = ServiceRequest::Explain {
        graph: example("cd_dat.sdf"),
    };
    check("allocation_explain.json", &payload(&request).to_json());
}

#[test]
fn mode_report() {
    let request = ServiceRequest::Modes {
        graph: example("codec_ip.sdfm"),
    };
    check("mode_report.json", &payload(&request).to_json());
}

#[test]
fn edit_report() {
    let request = ServiceRequest::Edit {
        graph: FIG2.to_string(),
        edits: "set-delay A B 5\nset-rate B C 40 20\n".to_string(),
    };
    check("edit_report.json", &payload(&request).to_json());
}

fn profile(shared: u64, probes: u64, median_us: f64) -> Profile {
    Profile {
        graph: "satrec".to_string(),
        actors: 22,
        edges: 28,
        repeats: 3,
        full: true,
        outcomes: Outcomes {
            shared_bufmem: shared,
            nonshared_bufmem: 1542,
            fragmentation: 4,
            winner: "apgan/sdppo/ffdur \"best\"".to_string(),
            candidates: 8,
        },
        counters: vec![
            ("alloc.first_fit.probes".to_string(), probes),
            ("odd \"name\"\n".to_string(), 1),
            ("sched.dppo.cells".to_string(), 231),
        ],
        timings: vec![
            (
                "engine.total".to_string(),
                TimingStat {
                    median_us,
                    mad_us: 12.0625,
                    samples: 3,
                },
            ),
            (
                "stage.alloc".to_string(),
                TimingStat {
                    median_us: 0.0005,
                    mad_us: 0.0,
                    samples: 3,
                },
            ),
        ],
    }
}

#[test]
fn baseline_profile() {
    check(
        "baseline_profile.json",
        &profile(991, 40, 1234.5678).to_json(),
    );
}

#[test]
fn regression_report() {
    let baseline = profile(991, 40, 1234.5678);
    let mut candidate = profile(1003, 41, 99_999.25);
    candidate.counters.remove(1);
    candidate
        .counters
        .push(("sched.sdppo.splits_pruned".to_string(), 17));
    let report = diff(&baseline, &candidate, &DiffOptions::default());
    check("regression_report.json", &report.to_json());
}

#[test]
fn service_requests_for_every_op() {
    let graph = "graph \"q\"\tx\nedge A B 1 1 # µs \\ \u{1}\n".to_string();
    let requests = [
        ServiceRequest::Analyze {
            graph: graph.clone(),
            serial: true,
            full: false,
        },
        ServiceRequest::Plan {
            graph: graph.clone(),
            method: OrderMethod::Rpmc,
            model: MemoryModel::NonShared,
        },
        ServiceRequest::Simulate {
            graph: graph.clone(),
            method: OrderMethod::Apgan,
            model: MemoryModel::Shared,
        },
        ServiceRequest::Explain {
            graph: graph.clone(),
        },
        ServiceRequest::Edit {
            graph: graph.clone(),
            edits: "set-delay A B 5\n".to_string(),
        },
        ServiceRequest::Modes {
            graph: graph.clone(),
        },
        ServiceRequest::Baseline {
            graph: graph.clone(),
            repeats: 7,
            full: true,
            perturb: Some("sched.dppo.cells=+1".to_string()),
        },
        ServiceRequest::Compare {
            baseline: "{\"kind\":\"baseline_profile\"}".to_string(),
            candidate: "{}\n".to_string(),
            gate: true,
            allow: vec!["sched.*".to_string(), "a\"b".to_string()],
        },
        ServiceRequest::Stats,
        ServiceRequest::Metrics,
        ServiceRequest::Events,
        ServiceRequest::Shutdown,
    ];
    for request in &requests {
        let name = format!("service_request_{}.json", request.op());
        check(&name, &request.to_json("req-\"7\""));
    }
    // The optional members' other branch: no perturbation, empty allow list.
    let bare_baseline = ServiceRequest::Baseline {
        graph: FIG2.to_string(),
        repeats: 1,
        full: false,
        perturb: None,
    };
    check(
        "service_request_baseline_bare.json",
        &bare_baseline.to_json(""),
    );
    let bare_compare = ServiceRequest::Compare {
        baseline: String::new(),
        candidate: String::new(),
        gate: false,
        allow: Vec::new(),
    };
    check(
        "service_request_compare_bare.json",
        &bare_compare.to_json("c1"),
    );
}

fn stages() -> Vec<StageSpan> {
    vec![
        StageSpan::leaf("parse", 0, pinned(1)),
        StageSpan {
            name: "engine",
            start_ns: pinned(2),
            dur_ns: pinned(4),
            children: vec![
                StageSpan::leaf("schedule", pinned(2), pinned(3)),
                StageSpan::leaf("alloc", pinned(4), 0),
            ],
        },
        StageSpan::leaf("render", pinned(5), pinned(6)),
    ]
}

fn telemetry() -> RequestTelemetry {
    RequestTelemetry {
        cache: CacheStatus::Miss,
        queue_wait_ns: pinned(4),
        service_ns: pinned(5),
        stages: stages(),
        counters: vec![
            ("service.cache.misses".to_string(), 1),
            ("service.jobs.completed".to_string(), 1),
        ],
    }
}

#[test]
fn service_responses() {
    let graph = parse_graph(FIG2).expect("graph");
    let ok = || {
        ServiceResponse::Ok(ResponsePayload::Plan {
            plan: Box::new(lower_plan(&graph, OrderMethod::Apgan, MemoryModel::Shared).unwrap()),
        })
    };
    let error = ServiceResponse::Err(ServiceError {
        code: ErrorCode::ParseError,
        input: Some("graph"),
        message: "line 2: bad rate `x`\n\"edge A B x 1\"".to_string(),
    });
    let engine_error = ServiceResponse::Err(ServiceError {
        code: ErrorCode::EngineError,
        input: None,
        message: "inconsistent rates".to_string(),
    });
    let rejected = ServiceResponse::Rejected {
        message: "queue full (64 jobs)".to_string(),
    };
    let t = telemetry();
    check("service_response_ok.json", &ok().to_json("r1", false));
    check(
        "service_response_ok_telemetry.json",
        &ok().to_json_with_telemetry("r\"2", true, Some(&t)),
    );
    check("service_response_error.json", &error.to_json("r3", false));
    check(
        "service_response_error_telemetry.json",
        &error.to_json_with_telemetry("r4", false, Some(&t)),
    );
    check(
        "service_response_engine_error.json",
        &engine_error.to_json("r5", false),
    );
    check(
        "service_response_rejected.json",
        &rejected.to_json("r6", false),
    );
    check(
        "service_response_rejected_telemetry.json",
        &rejected.to_json_with_telemetry("r7", false, Some(&t)),
    );
}

fn histogram(samples: &[u64]) -> Histogram {
    let mut h = Histogram::default();
    for &v in samples {
        h.record(v);
    }
    h
}

#[test]
fn service_stats_metrics_events() {
    let stats = ResponsePayload::Stats {
        counters: vec![
            ("service.requests".to_string(), 12),
            ("service.requests.\"odd\"".to_string(), 0),
        ],
        gauges: vec![("service.queue.depth".to_string(), 3)],
        histograms: vec![
            (
                "service.latency_us".to_string(),
                histogram(&[0, 1, 3, 3, 900, 1 << 40]),
            ),
            ("service.empty".to_string(), Histogram::default()),
        ],
    };
    check("service_stats.json", &stats.to_json());
    let empty_stats = ResponsePayload::Stats {
        counters: Vec::new(),
        gauges: Vec::new(),
        histograms: Vec::new(),
    };
    check("service_stats_empty.json", &empty_stats.to_json());
    let metrics = ResponsePayload::Metrics {
        exposition: "# HELP sdf_requests Requests.\n# TYPE sdf_requests counter\n\
                     sdf_requests{op=\"analyze\"} 3\n"
            .to_string(),
    };
    check("service_metrics.json", &metrics.to_json());
    let events = ResponsePayload::Events {
        capacity: 256,
        dropped: 5,
        records: vec![
            FlightRecord {
                seq: 6,
                op: "analyze",
                outcome: "complete",
                cache: CacheStatus::Hit,
                queue_wait_ns: 0,
                service_ns: pinned(3),
                stages: Vec::new(),
            },
            telemetry().to_flight_record("simulate", "failed"),
        ],
    };
    check("service_events.json", &events.to_json());
}

fn snapshot() -> TraceSnapshot {
    TraceSnapshot {
        schema_version: SCHEMA_VERSION,
        events: vec![
            Event {
                id: 1,
                parent: None,
                name: "engine.run",
                args: vec![("graph", "fig \"2\"\n".to_string())],
                thread: 0,
                start_ns: pinned(1),
                dur_ns: pinned(5),
            },
            Event {
                id: 2,
                parent: Some(1),
                name: "sched.dppo",
                args: vec![("order", "apgan".to_string()), ("n", "3".to_string())],
                thread: 1,
                start_ns: pinned(3),
                dur_ns: pinned(4),
            },
            Event {
                id: 3,
                parent: Some(1),
                name: "alloc.first_fit",
                args: Vec::new(),
                thread: 0,
                start_ns: pinned(4),
                dur_ns: 0,
            },
        ],
        counters: vec![
            ("sched.dppo.cells".to_string(), 6),
            ("sched.dppo.probes".to_string(), 0),
        ],
        gauges: vec![("alloc.first_fit.fragmentation".to_string(), 2)],
        histograms: vec![("sched.sdppo.split".to_string(), histogram(&[1, 2, 2, 70]))],
    }
}

#[test]
fn chrome_traces_and_jsonl() {
    let tracks = [
        CounterTrack {
            name: "pool.occupied_words".to_string(),
            points: vec![(0, 0), (1, 30), (2, 10)],
        },
        CounterTrack {
            name: "pool.live \"words\"".to_string(),
            points: vec![(5, 7)],
        },
    ];
    let snap = snapshot();
    check("chrome_trace.json", &snap.to_chrome_trace_json());
    check(
        "chrome_trace_tracks.json",
        &snap.to_chrome_trace_json_with_tracks(&tracks),
    );
    let empty = TraceSnapshot {
        schema_version: SCHEMA_VERSION,
        events: Vec::new(),
        counters: Vec::new(),
        gauges: Vec::new(),
        histograms: Vec::new(),
    };
    check(
        "chrome_trace_tracks_only.json",
        &empty.to_chrome_trace_json_with_tracks(&tracks[1..]),
    );
    check("chrome_trace_empty.json", &empty.to_chrome_trace_json());
    check("trace.jsonl", &snap.to_jsonl());
}
