//! Integration tests for the `sdfmemd` synthesis service.
//!
//! These exercise the daemon end to end over real TCP connections:
//! the content-addressed cache under concurrent clients, the
//! byte-identity contract between cached and fresh responses,
//! queue backpressure, malformed and oversized request lines, and the stats
//! and shutdown control operations.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::thread;

use sdf_service::{
    execute_request, Client, MemoryModel, OrderMethod, Server, ServerConfig, ServiceRequest,
    ServiceResponse, WireResponse, MAX_REQUEST_BYTES,
};
use sdf_trace::json::{self, Json};
use sdfmem::incremental::{apply_edits, EditScript};

const FIG2: &str = "graph fig2\nedge A B 20 10\nedge B C 20 10\n";

fn start(config: ServerConfig) -> (Server, String) {
    let server = Server::bind("127.0.0.1:0", config).expect("bind ephemeral port");
    let addr = server.local_addr().to_string();
    (server, addr)
}

fn counter(server: &Server, name: &str) -> u64 {
    server
        .recorder()
        .counters()
        .into_iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| v)
}

fn analyze(graph: &str) -> ServiceRequest {
    ServiceRequest::Analyze {
        graph: graph.to_string(),
        serial: false,
        full: false,
    }
}

fn plan(graph: &str) -> ServiceRequest {
    ServiceRequest::Plan {
        graph: graph.to_string(),
        method: OrderMethod::Apgan,
        model: MemoryModel::Shared,
    }
}

#[test]
fn concurrent_clients_hit_the_cache_once_per_distinct_key() {
    // M threads, each with its own distinct graph, submit N times
    // sequentially. Every thread's first submission is the miss that
    // populates its slot; the remaining N-1 are hits, regardless of
    // how the threads interleave (per-thread submissions are
    // sequential, so each key is populated before its repeats).
    const M: usize = 4;
    const N: usize = 5;
    let (server, addr) = start(ServerConfig::default());
    let handles: Vec<_> = (0..M)
        .map(|i| {
            let addr = addr.clone();
            thread::spawn(move || {
                let graph = format!("graph g{i}\nedge A B {} {}\n", 6 * (i + 1), 3 * (i + 1));
                let mut client = Client::connect(&addr).expect("connect");
                let mut payloads = Vec::new();
                for rep in 0..N {
                    let id = format!("t{i}-r{rep}");
                    let response = client.call(&id, &analyze(&graph)).expect("call");
                    assert!(response.is_ok(), "{response:?}");
                    assert_eq!(response.request_id, id);
                    assert_eq!(response.cached, rep > 0, "rep {rep} of thread {i}");
                    payloads.push(response.payload.expect("payload"));
                }
                payloads
            })
        })
        .collect();
    for handle in handles {
        let payloads = handle.join().expect("thread");
        // Byte identity: every cached payload equals the bytes the
        // first (miss) submission produced.
        for repeat in &payloads[1..] {
            assert_eq!(repeat, &payloads[0]);
        }
    }
    assert_eq!(counter(&server, "service.cache.hits"), (M * (N - 1)) as u64);
    assert_eq!(counter(&server, "service.cache.misses"), M as u64);
    assert_eq!(counter(&server, "service.jobs.complete"), M as u64);
    server.shutdown();
    server.wait();
}

#[test]
fn cached_plan_payload_matches_direct_execution_bytes() {
    // Plan documents embed no wall-clock timings, so the wire payload
    // must be byte-identical to an in-process run of the same request
    // — whether served fresh or from cache.
    let request = plan(FIG2);
    let direct = match execute_request(&request) {
        ServiceResponse::Ok(payload) => payload.to_json(),
        other => panic!("direct execution failed with status {}", other.status()),
    };
    let (server, addr) = start(ServerConfig::default());
    let mut client = Client::connect(&addr).expect("connect");
    let fresh = client.call("p1", &request).expect("call");
    let cached = client.call("p2", &request).expect("call");
    assert!(!fresh.cached && cached.cached);
    assert_eq!(fresh.payload.as_deref(), Some(direct.as_str()));
    assert_eq!(cached.payload, fresh.payload);
    server.shutdown();
    server.wait();
}

#[test]
fn serial_analyze_is_served_from_the_parallel_slot() {
    // The engine guarantees serial and parallel analysis pick the same
    // winner, so the daemon normalises serial requests onto the
    // parallel cache slot: the second submission is a hit even though
    // its options differ.
    let (server, addr) = start(ServerConfig::default());
    let mut client = Client::connect(&addr).expect("connect");
    let parallel = client.call("a", &analyze(FIG2)).expect("call");
    let serial = client
        .call(
            "b",
            &ServiceRequest::Analyze {
                graph: FIG2.to_string(),
                serial: true,
                full: false,
            },
        )
        .expect("call");
    assert!(!parallel.cached);
    assert!(serial.cached, "{serial:?}");
    assert_eq!(serial.payload, parallel.payload);
    server.shutdown();
    server.wait();
}

#[test]
fn full_queue_rejects_cleanly_and_shutdown_drains_parked_jobs() {
    // No workers, a queue of two: the first two submissions park in
    // the queue, the third bounces with a `rejected` envelope, and
    // shutdown answers the parked jobs with `unavailable` instead of
    // hanging their clients.
    let (server, addr) = start(ServerConfig {
        workers: 0,
        cache_capacity: 8,
        queue_capacity: 2,
        ..ServerConfig::default()
    });
    let parked: Vec<_> = (0..2)
        .map(|i| {
            let addr = addr.clone();
            thread::spawn(move || {
                let graph = format!("graph park{i}\nedge A B 4 2\n");
                let mut client = Client::connect(&addr).expect("connect");
                client
                    .call(&format!("park{i}"), &analyze(&graph))
                    .expect("call")
            })
        })
        .collect();
    // Wait until both jobs are actually enqueued before probing.
    while counter(&server, "service.jobs.enqueued") < 2 {
        thread::yield_now();
    }
    let mut prober = Client::connect(&addr).expect("connect");
    let bounced = prober
        .call("probe", &analyze("graph probe\nedge A B 2 1\n"))
        .expect("call");
    assert_eq!(bounced.status, "rejected", "{bounced:?}");
    let error = bounced.error.expect("error object");
    assert_eq!(error.code, "unavailable");
    assert_eq!(counter(&server, "service.jobs.rejected"), 1);
    server.shutdown();
    for handle in parked {
        let response = handle.join().expect("thread");
        assert_eq!(response.status, "error", "{response:?}");
        assert_eq!(response.error.expect("error").code, "unavailable");
    }
    server.wait();
}

#[test]
fn malformed_lines_get_error_envelopes_not_disconnects() {
    let (server, addr) = start(ServerConfig::default());
    let mut client = Client::connect(&addr).expect("connect");
    // The unknown-op line must carry the *current* schema version, or
    // the version check would reject it before the op dispatch runs.
    let unknown_op = format!(
        "{{\"kind\":\"service_request\",\"schema_version\":{},\"op\":\"conjure\"}}",
        sdf_trace::SCHEMA_VERSION
    );
    for bad in [
        "this is not json",
        "{\"kind\":\"engine_report\",\"schema_version\":7}",
        "{\"kind\":\"service_request\",\"schema_version\":1,\"op\":\"stats\"}",
        unknown_op.as_str(),
    ] {
        let response = client
            .send_raw(bad)
            .expect("error envelope, not a disconnect");
        assert_eq!(response.status, "error", "{bad}: {response:?}");
        assert_eq!(response.error.expect("error").code, "bad_request", "{bad}");
    }
    // A graph that fails to parse is attributed to the graph input.
    let response = client
        .call("bad-graph", &analyze("graph broken\nedge A\n"))
        .expect("call");
    assert_eq!(response.status, "error");
    let error = response.error.expect("error");
    assert_eq!(error.code, "parse_error");
    assert_eq!(error.input.as_deref(), Some("graph"));
    assert_eq!(counter(&server, "service.requests.malformed"), 4);
    // The connection survived all of it.
    let ok = client.call("after", &analyze(FIG2)).expect("call");
    assert!(ok.is_ok());
    server.shutdown();
    server.wait();
}

#[test]
fn a_graph_whose_buffers_overflow_u64_gets_an_error_envelope() {
    let (server, addr) = start(ServerConfig::default());
    let mut client = Client::connect(&addr).expect("connect");
    for graph in [
        include_str!("golden/cli/graphs/overflow_parallel.sdf"),
        include_str!("golden/cli/graphs/overflow_tnse.sdf"),
    ] {
        let response = client.call("overflow", &analyze(graph)).expect("call");
        assert_eq!(response.status, "error", "{response:?}");
        let error = response.error.expect("error");
        assert_eq!(error.code, "engine_error", "{error:?}");
        assert!(error.message.contains("overflow"), "{error:?}");
    }
    let ok = client.call("after", &analyze(FIG2)).expect("call");
    assert!(ok.is_ok());
    server.shutdown();
    server.wait();
}

/// Reads one response line from `reader` and parses it.
fn read_response(reader: &mut impl BufRead) -> WireResponse {
    let mut line = String::new();
    reader.read_line(&mut line).expect("response line");
    WireResponse::parse(&line).expect("response envelope")
}

#[test]
fn an_oversized_request_line_is_refused_and_other_clients_keep_serving() {
    let (server, addr) = start(ServerConfig::default());
    let stream = TcpStream::connect(&addr).expect("connect");
    // 100 MB with no newline, from its own thread: the daemon answers
    // once it has read past the limit and then closes the connection,
    // so the writer's remaining writes fail.
    let mut flood = stream.try_clone().expect("clone");
    let writer = thread::spawn(move || {
        let chunk = vec![b'x'; 1 << 20];
        for _ in 0..100 {
            if flood.write_all(&chunk).is_err() {
                return;
            }
        }
    });
    let response = read_response(&mut BufReader::new(stream));
    writer.join().expect("writer thread");
    assert_eq!(response.status, "error", "{response:?}");
    let error = response.error.expect("error");
    assert_eq!(error.code, "bad_request");
    assert!(
        error.message.contains(&MAX_REQUEST_BYTES.to_string()),
        "{}",
        error.message
    );
    assert_eq!(counter(&server, "service.requests.oversized"), 1);
    let mut client = Client::connect(&addr).expect("connect");
    let ok = client.call("after", &analyze(FIG2)).expect("call");
    assert!(ok.is_ok(), "{ok:?}");
    server.shutdown();
    server.wait();
}

#[test]
fn a_non_utf8_line_is_answered_and_the_connection_keeps_serving() {
    let (server, addr) = start(ServerConfig::default());
    let mut stream = TcpStream::connect(&addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    stream.write_all(b"{\"op\":\"\xff\xfe\"}\n").expect("write");
    let response = read_response(&mut reader);
    assert_eq!(response.status, "error", "{response:?}");
    let error = response.error.expect("error");
    assert_eq!(error.code, "bad_request");
    assert!(error.message.contains("UTF-8"), "{}", error.message);
    assert_eq!(counter(&server, "service.requests.malformed"), 1);
    let line = analyze(FIG2).to_json("after") + "\n";
    stream.write_all(line.as_bytes()).expect("write");
    let response = read_response(&mut reader);
    assert!(response.is_ok(), "{response:?}");
    assert_eq!(response.request_id, "after");
    server.shutdown();
    server.wait();
}

#[test]
fn stats_reports_live_counters_and_shutdown_is_clean() {
    let (server, addr) = start(ServerConfig::default());
    let mut client = Client::connect(&addr).expect("connect");
    for id in ["s1", "s2"] {
        let response = client.call(id, &analyze(FIG2)).expect("call");
        assert!(response.is_ok());
    }
    let stats = client.call("stats", &ServiceRequest::Stats).expect("call");
    assert!(stats.is_ok());
    let doc = json::parse(stats.payload.as_deref().expect("payload")).expect("stats JSON");
    assert_eq!(
        doc.get("kind").and_then(Json::as_str),
        Some("service_stats")
    );
    let counters = doc.get("counters").expect("counters object");
    let get = |name: &str| counters.get(name).and_then(Json::as_num);
    assert_eq!(get("service.cache.hits"), Some(1.0));
    assert_eq!(get("service.cache.misses"), Some(1.0));
    assert_eq!(get("service.requests"), Some(3.0));
    // Histogram summaries ride along: both analyze submissions (the
    // miss and the hit) recorded a latency sample, and the bucket
    // counts sum to the histogram's count.
    let latency = doc
        .get("histograms")
        .and_then(|h| h.get("service.op.analyze.latency"))
        .expect("analyze latency histogram");
    assert_eq!(latency.get("count").and_then(Json::as_num), Some(2.0));
    let buckets = latency
        .get("buckets")
        .and_then(Json::as_array)
        .expect("bucket triples");
    let total: f64 = buckets
        .iter()
        .filter_map(|b| b.as_array()?.get(2)?.as_num())
        .sum();
    assert_eq!(total, 2.0);
    // Shutdown also answers with a final stats snapshot.
    let bye = client.call("bye", &ServiceRequest::Shutdown).expect("call");
    assert!(bye.is_ok(), "{bye:?}");
    server.wait();
    assert!(Client::connect(&addr).is_err(), "daemon still listening");
}

#[test]
fn lru_eviction_keeps_the_cache_bounded() {
    let (server, addr) = start(ServerConfig {
        workers: 1,
        cache_capacity: 2,
        queue_capacity: 8,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(&addr).expect("connect");
    let graphs: Vec<String> = (0..3)
        .map(|i| format!("graph e{i}\nedge A B {} {}\n", 4 * (i + 1), 2 * (i + 1)))
        .collect();
    for (i, graph) in graphs.iter().enumerate() {
        let response = client
            .call(&format!("fill{i}"), &analyze(graph))
            .expect("call");
        assert!(!response.cached);
    }
    // Graph 0 was evicted to admit graph 2; graph 2 is still resident.
    assert_eq!(counter(&server, "service.cache.evictions"), 1);
    let revisit = client.call("revisit", &analyze(&graphs[2])).expect("call");
    assert!(revisit.cached);
    let evicted = client.call("evicted", &analyze(&graphs[0])).expect("call");
    assert!(!evicted.cached);
    server.shutdown();
    server.wait();
}

#[test]
fn cached_payloads_stay_byte_identical_while_telemetry_differs() {
    // The tentpole contract: telemetry is composed per request
    // *outside* the cached bytes, so a hit reuses the payload verbatim
    // yet tells its own story in the envelope.
    let (server, addr) = start(ServerConfig::default());
    let mut client = Client::connect(&addr).expect("connect");
    let fresh = client.call("f", &analyze(FIG2)).expect("call");
    let cached = client.call("c", &analyze(FIG2)).expect("call");
    assert!(!fresh.cached && cached.cached);
    assert_eq!(fresh.payload, cached.payload, "payload bytes must agree");
    let fresh_t = fresh.telemetry.expect("fresh telemetry");
    let cached_t = cached.telemetry.expect("cached telemetry");
    assert_ne!(fresh_t, cached_t, "telemetry must be per-request");
    // The miss ran the pipeline: its stage tree starts at `parse` and
    // its counters moved. The hit only touched the cache.
    let fresh_doc = json::parse(&fresh_t).expect("telemetry JSON");
    assert_eq!(fresh_doc.get("cache").and_then(Json::as_str), Some("miss"));
    let stages = fresh_doc
        .get("stages")
        .and_then(Json::as_array)
        .expect("stages");
    let names: Vec<&str> = stages
        .iter()
        .filter_map(|s| s.get("name").and_then(Json::as_str))
        .collect();
    assert!(names.contains(&"parse"), "{names:?}");
    assert!(names.contains(&"engine"), "{names:?}");
    let cached_doc = json::parse(&cached_t).expect("telemetry JSON");
    assert_eq!(cached_doc.get("cache").and_then(Json::as_str), Some("hit"));
    let hit_stages = cached_doc
        .get("stages")
        .and_then(Json::as_array)
        .expect("stages");
    assert_eq!(
        hit_stages
            .first()
            .and_then(|s| s.get("name").and_then(Json::as_str)),
        Some("cache.lookup")
    );
    // The same contract holds for `explain`: the allocation_explain
    // payload repeats byte-for-byte from the cache while each response
    // carries its own telemetry.
    let explain = ServiceRequest::Explain {
        graph: FIG2.to_string(),
    };
    let explain_fresh = client.call("ef", &explain).expect("call");
    let explain_cached = client.call("ec", &explain).expect("call");
    assert!(!explain_fresh.cached && explain_cached.cached);
    assert_eq!(
        explain_fresh.payload, explain_cached.payload,
        "explain payload bytes must agree"
    );
    let explain_doc =
        json::parse(explain_fresh.payload.as_deref().expect("payload")).expect("payload JSON");
    assert_eq!(
        explain_doc.get("kind").and_then(Json::as_str),
        Some("allocation_explain")
    );
    assert_ne!(
        explain_fresh.telemetry, explain_cached.telemetry,
        "telemetry must be per-request"
    );
    server.shutdown();
    server.wait();
}

#[test]
fn metrics_op_returns_valid_exposition_text() {
    let (server, addr) = start(ServerConfig::default());
    let mut client = Client::connect(&addr).expect("connect");
    assert!(client.call("a", &analyze(FIG2)).expect("call").is_ok());
    let metrics = client
        .call("m", &ServiceRequest::Metrics)
        .expect("metrics call");
    assert!(metrics.is_ok(), "{metrics:?}");
    let doc = json::parse(metrics.payload.as_deref().expect("payload")).expect("metrics JSON");
    assert_eq!(
        doc.get("kind").and_then(Json::as_str),
        Some("service_metrics")
    );
    let text = doc
        .get("exposition")
        .and_then(Json::as_str)
        .expect("exposition text");
    sdf_trace::expo::validate_exposition(text).expect("exposition validates");
    assert!(
        text.contains("# TYPE service_op_analyze_latency histogram"),
        "{text}"
    );
    assert!(
        text.contains("service_op_analyze_latency_count 1"),
        "{text}"
    );
    assert!(text.contains("service_requests 2"), "{text}");
    server.shutdown();
    server.wait();
}

#[test]
fn flight_recorder_caps_at_capacity_and_drains_oldest_first() {
    let (server, addr) = start(ServerConfig {
        flight_capacity: 4,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(&addr).expect("connect");
    // Six distinct graphs = six misses = six flight records; the ring
    // holds four, so records 1 and 2 fall off the front.
    for i in 0..6 {
        let graph = format!("graph fl{i}\nedge A B {} {}\n", 2 * (i + 1), i + 1);
        assert!(client
            .call(&format!("fl{i}"), &analyze(&graph))
            .expect("call")
            .is_ok());
    }
    let events = client.call("e1", &ServiceRequest::Events).expect("call");
    let doc = json::parse(events.payload.as_deref().expect("payload")).expect("events JSON");
    assert_eq!(
        doc.get("kind").and_then(Json::as_str),
        Some("service_events")
    );
    assert_eq!(doc.get("capacity").and_then(Json::as_num), Some(4.0));
    assert_eq!(doc.get("dropped").and_then(Json::as_num), Some(2.0));
    let records = doc
        .get("events")
        .and_then(Json::as_array)
        .expect("events array");
    let seqs: Vec<f64> = records
        .iter()
        .filter_map(|r| r.get("seq").and_then(Json::as_num))
        .collect();
    assert_eq!(seqs, vec![3.0, 4.0, 5.0, 6.0], "oldest-first, capped");
    for record in records {
        assert_eq!(record.get("op").and_then(Json::as_str), Some("analyze"));
        assert_eq!(
            record.get("outcome").and_then(Json::as_str),
            Some("complete")
        );
        assert_eq!(record.get("cache").and_then(Json::as_str), Some("miss"));
    }
    // Draining resets the ring: a second drain is empty with nothing
    // newly dropped.
    let again = client.call("e2", &ServiceRequest::Events).expect("call");
    let doc = json::parse(again.payload.as_deref().expect("payload")).expect("events JSON");
    assert_eq!(doc.get("dropped").and_then(Json::as_num), Some(0.0));
    assert_eq!(
        doc.get("events").and_then(Json::as_array).map(<[_]>::len),
        Some(0)
    );
    server.shutdown();
    server.wait();
}

/// One client's edit session: three chained edits, each on the graph
/// the previous one produced, against the daemon.
#[test]
fn edit_flow_chains_sessions_and_keeps_byte_identity() {
    let edit = |graph: &str, edits: &str| ServiceRequest::Edit {
        graph: graph.to_string(),
        edits: edits.to_string(),
    };
    let direct = |request: &ServiceRequest| match execute_request(request) {
        ServiceResponse::Ok(payload) => payload.to_json(),
        other => panic!("direct edit failed with status {}", other.status()),
    };
    let (server, addr) = start(ServerConfig::default());
    let mut client = Client::connect(&addr).expect("connect");
    // Every payload must equal the in-process run byte for byte, and
    // each edited graph is the base of the next edit.
    let mut base = FIG2.to_string();
    let mut payloads = Vec::new();
    for (i, script) in [
        "set-delay A B 5\n",
        "set-rate B C 40 20\n",
        "add-edge C D 1 2\n",
    ]
    .into_iter()
    .enumerate()
    {
        let request = edit(&base, script);
        let response = client.call(&format!("e{i}"), &request).expect("call");
        assert!(response.is_ok(), "{script}: {response:?}");
        assert!(!response.cached, "{script}");
        let payload = response.payload.expect("payload");
        assert_eq!(payload, direct(&request), "{script}");
        let doc = json::parse(&payload).expect("payload JSON");
        assert_eq!(doc.get("kind").and_then(Json::as_str), Some("edit_report"));
        let base_graph = sdfmem::core::io::parse_graph(&base).expect("base graph");
        let edited = apply_edits(&base_graph, &EditScript::parse(script).expect("script"))
            .expect("edit applies");
        base = sdfmem::core::io::to_text(&edited);
        payloads.push(payload);
    }
    // The identical first request repeats from the result cache,
    // verbatim.
    let repeat = client
        .call("again", &edit(FIG2, "set-delay A B 5\n"))
        .expect("call");
    assert!(repeat.cached, "{repeat:?}");
    assert_eq!(repeat.payload.as_deref(), Some(payloads[0].as_str()));
    // A bad script is a typed parse error attributed to the edits
    // input, and the next edit is served as usual.
    let bad = client
        .call("bad", &edit(FIG2, "frobnicate A B\n"))
        .expect("call");
    assert_eq!(bad.status, "error");
    let error = bad.error.expect("error");
    assert_eq!(error.code, "parse_error");
    assert_eq!(error.input.as_deref(), Some("edits"));
    let after = client
        .call("after", &edit(FIG2, "set-delay B C 3\n"))
        .expect("call");
    assert!(after.is_ok(), "{after:?}");
    // Edits are ordinary jobs: the daemon keeps no edit state of its own.
    assert_eq!(counter(&server, "service.jobs.complete"), 4);
    let stats = client.call("stats", &ServiceRequest::Stats).expect("call");
    let doc = json::parse(stats.payload.as_deref().expect("payload")).expect("stats JSON");
    for table in ["counters", "gauges"] {
        let Some(Json::Obj(members)) = doc.get(table) else {
            panic!("stats has no {table} object");
        };
        assert!(
            members.iter().all(|(name, _)| !name.starts_with("engine.")),
            "{table}: {members:?}"
        );
    }
    server.shutdown();
    server.wait();
}

#[test]
fn trace_dir_writes_one_parseable_trace_per_completed_job() {
    let dir = std::env::temp_dir().join(format!("sdfmem-trace-dir-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("trace dir");
    let (server, addr) = start(ServerConfig {
        trace_dir: Some(dir.clone()),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(&addr).expect("connect");
    for (i, graph) in ["graph t0\nedge A B 4 2\n", "graph t1\nedge A B 6 3\n"]
        .iter()
        .enumerate()
    {
        assert!(client
            .call(&format!("t{i}"), &analyze(graph))
            .expect("call")
            .is_ok());
    }
    // A cache hit reuses stored bytes without re-running the job, so
    // it must NOT add a trace file.
    assert!(
        client
            .call("hit", &analyze("graph t0\nedge A B 4 2\n"))
            .expect("call")
            .cached
    );
    server.shutdown();
    server.wait();
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("read trace dir")
        .map(|e| e.expect("entry").path())
        .collect();
    files.sort();
    assert_eq!(files.len(), 2, "{files:?}");
    for path in &files {
        let text = std::fs::read_to_string(path).expect("read trace");
        let parsed = json::parse(&text).expect("chrome trace JSON parses");
        let events = parsed
            .get("traceEvents")
            .and_then(Json::as_array)
            .expect("traceEvents");
        let names: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("name").and_then(Json::as_str))
            .collect();
        assert!(names.contains(&"service.job"), "{names:?}");
        assert!(names.contains(&"parse"), "{names:?}");
        assert!(names.contains(&"engine"), "{names:?}");
        let _ = std::fs::remove_file(path);
    }
    let _ = std::fs::remove_dir(&dir);
}
