//! The `sdfmemd` daemon: a TCP server over the unified API.
//!
//! Protocol: line-delimited JSON. Each connection may submit any
//! number of [`ServiceRequest`] lines and receives one
//! [`ServiceResponse`] line per request, in order.
//!
//! Architecture: an accept thread spawns one lightweight thread per
//! connection. Connection threads parse requests, probe the result
//! cache, and on a miss enqueue a [`Job`] on the bounded queue, then
//! block on the job's channel; a fixed pool of worker threads drains
//! the queue through [`crate::api::execute_request_cached`]. A full
//! queue rejects the submission immediately (state `rejected`) —
//! backpressure reaches the client as a response, never as a hang.
//!
//! **Byte-identity invariant.** Workers never install a global
//! [`sdf_trace`] recorder around job execution: engine counters are
//! process-global totals, so a recorder would make the embedded
//! `counters` section of an `engine_report` depend on what ran
//! before, and a cached payload would no longer be byte-identical to
//! a fresh run. All `service.*` instruments and per-job `service.job`
//! spans go directly onto the server's private [`Recorder`] instead —
//! and the per-request `telemetry` envelope member is composed on the
//! connection thread from [`RequestTelemetry`], *outside* the cached
//! payload bytes, so hits and misses share payload bytes while each
//! carries its own timings.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;

use sdf_trace::{
    expo, CacheStatus, Event, FlightRecorder, Recorder, StageSpan, TraceSnapshot, SCHEMA_VERSION,
};

use crate::api::{
    envelope_error, envelope_ok, execute_request_cached_timed, ErrorCode, RequestTelemetry,
    ResponsePayload, ServiceError, ServiceRequest, ServiceResponse,
};
use crate::cache::{CacheLookup, ResultCache};
use crate::job::{Job, JobOutcome, JobQueue, JobState};
use sdf_trace::CounterSnapshot;

/// Daemon tuning knobs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Worker threads draining the job queue. Zero is allowed (useful
    /// for deterministic backpressure tests): nothing drains the
    /// queue, so the first `queue_capacity` misses park and later ones
    /// are rejected.
    pub workers: usize,
    /// Result-cache capacity, in entries.
    pub cache_capacity: usize,
    /// Job-queue capacity; submissions beyond it are rejected.
    pub queue_capacity: usize,
    /// Flight-recorder capacity: per-request summaries kept for the
    /// `events` op.
    pub flight_capacity: usize,
    /// When set, a Perfetto-format span export is written into this
    /// directory for every completed job (`job-<seq>.json`).
    pub trace_dir: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 2,
            cache_capacity: 256,
            queue_capacity: 64,
            flight_capacity: 128,
            trace_dir: None,
        }
    }
}

struct Shared {
    recorder: Arc<Recorder>,
    flight: FlightRecorder,
    cache: Mutex<ResultCache>,
    queue: JobQueue,
    stopping: AtomicBool,
    addr: SocketAddr,
    trace_dir: Option<PathBuf>,
    trace_seq: AtomicU64,
}

impl Shared {
    fn count(&self, name: &'static str) {
        self.recorder.counter_add(name, 1);
    }

    /// The payload of a daemon-only request: `metrics`, `events`, or
    /// the instruments' snapshot that `stats` and `shutdown` answer.
    fn daemon_payload(&self, request: &ServiceRequest) -> ResponsePayload {
        let r = &self.recorder;
        match request {
            ServiceRequest::Metrics => ResponsePayload::Metrics {
                exposition: expo::write_exposition(&r.counters(), &r.gauges(), &r.histograms()),
            },
            ServiceRequest::Events => {
                let (records, dropped) = self.flight.drain();
                ResponsePayload::Events {
                    capacity: self.flight.capacity(),
                    dropped,
                    records,
                }
            }
            _ => ResponsePayload::Stats {
                counters: r.counters(),
                gauges: r.gauges(),
                histograms: r.histograms(),
            },
        }
    }
}

/// A running daemon. Dropping the handle does not stop it; call
/// [`Server::shutdown`] (or submit a `shutdown` request) and then
/// [`Server::wait`].
pub struct Server {
    shared: Arc<Shared>,
    accept_handle: Option<JoinHandle<()>>,
    worker_handles: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// starts the accept loop and worker pool.
    ///
    /// # Errors
    ///
    /// A human-readable message when the address cannot be bound.
    pub fn bind(addr: &str, config: ServerConfig) -> Result<Server, String> {
        let listener = TcpListener::bind(addr).map_err(|e| format!("cannot bind {addr}: {e}"))?;
        let local = listener
            .local_addr()
            .map_err(|e| format!("cannot resolve bound address: {e}"))?;
        let shared = Arc::new(Shared {
            recorder: Arc::new(Recorder::new()),
            flight: FlightRecorder::new(config.flight_capacity),
            cache: Mutex::new(ResultCache::new(config.cache_capacity)),
            queue: JobQueue::new(config.queue_capacity),
            stopping: AtomicBool::new(false),
            addr: local,
            trace_dir: config.trace_dir.clone(),
            trace_seq: AtomicU64::new(1),
        });
        let worker_handles = (0..config.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("sdfmemd-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .map_err(|e| format!("cannot spawn worker: {e}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let accept_handle = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("sdfmemd-accept".to_string())
                .spawn(move || accept_loop(&listener, &shared))
                .map_err(|e| format!("cannot spawn accept thread: {e}"))?
        };
        Ok(Server {
            shared,
            accept_handle: Some(accept_handle),
            worker_handles,
        })
    }

    /// The bound address (with the real port when `:0` was requested).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The daemon's private recorder — `service.*` counters, gauges
    /// and `service.job` spans.
    pub fn recorder(&self) -> Arc<Recorder> {
        Arc::clone(&self.shared.recorder)
    }

    /// Initiates shutdown: the queue closes (pending jobs are
    /// dropped), workers drain out and the accept loop is unblocked.
    pub fn shutdown(&self) {
        initiate_shutdown(&self.shared);
    }

    /// Blocks until the accept loop and every worker have exited.
    pub fn wait(mut self) {
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
        for handle in self.worker_handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn initiate_shutdown(shared: &Shared) {
    if shared.stopping.swap(true, Ordering::SeqCst) {
        return; // already stopping
    }
    shared.queue.close();
    // Unblock `accept` with a throwaway connection; the loop re-checks
    // the flag before handling it.
    let _ = TcpStream::connect(shared.addr);
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.stopping.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let shared = Arc::clone(shared);
        // Connection threads are detached: they exit when the client
        // closes the line or shutdown drops their jobs.
        let _ = std::thread::Builder::new()
            .name("sdfmemd-conn".to_string())
            .spawn(move || handle_connection(stream, &shared));
    }
}

fn worker_loop(shared: &Shared) {
    while let Some(job) = shared.queue.pop() {
        shared
            .recorder
            .gauge_set("service.queue.depth", shared.queue.depth() as u64);
        let started = shared.recorder.now_ns();
        let queue_wait_ns = started.saturating_sub(job.enqueued_ns);
        let counters_before = CounterSnapshot::capture_from(&shared.recorder);
        // Job state: pending → running. No global recorder here — see
        // the module docs for why that would break byte identity;
        // stages are measured directly by the timed executor instead.
        let (response, mut stages, panicked) =
            run_guarded(|| execute_request_cached_timed(&job.request));
        if panicked {
            shared.count("service.jobs.panicked");
        }
        let (outcome_result, state) = match response {
            ServiceResponse::Ok(payload) => {
                // Rendering the payload is part of service time; time
                // it as its own stage (offsets relative to `started`).
                let render_start = shared.recorder.now_ns();
                let rendered = Arc::new(payload.to_json());
                let render_end = shared.recorder.now_ns();
                stages.push(StageSpan::leaf(
                    "render",
                    render_start.saturating_sub(started),
                    render_end.saturating_sub(render_start),
                ));
                (Ok(rendered), JobState::Complete)
            }
            ServiceResponse::Err(error) => (Err(error), JobState::Failed),
            ServiceResponse::Rejected { message } => (
                // Unreachable from `execute_request_cached_timed`, but
                // keep the state machine total.
                Err(ServiceError {
                    code: ErrorCode::Unavailable,
                    input: None,
                    message,
                }),
                JobState::Failed,
            ),
        };
        let finished = shared.recorder.now_ns();
        let service_ns = finished.saturating_sub(started);
        shared.count(match state {
            JobState::Complete => "service.jobs.complete",
            _ => "service.jobs.failed",
        });
        let telemetry = RequestTelemetry {
            cache: if job.cache_key.is_some() {
                CacheStatus::Miss
            } else {
                CacheStatus::Uncached
            },
            queue_wait_ns,
            service_ns,
            stages,
            counters: counters_before.delta_since_from(&shared.recorder),
        };
        shared
            .recorder
            .histogram_record(job.request.latency_histogram(), service_ns);
        shared
            .recorder
            .histogram_record("service.queue.wait", queue_wait_ns);
        let seq = shared
            .flight
            .record(telemetry.to_flight_record(job.request.op(), state.as_str()));
        shared.recorder.record_span(
            "service.job",
            vec![
                ("op", job.request.op().to_string()),
                ("request_id", job.request_id.clone()),
                ("state", state.as_str().to_string()),
                ("queued_ns", queue_wait_ns.to_string()),
            ],
            started,
            service_ns,
        );
        if state == JobState::Complete {
            write_job_trace(shared, &job, seq, &telemetry);
        }
        let outcome = match outcome_result {
            Ok(payload) => JobOutcome::Complete(payload, telemetry),
            Err(error) => JobOutcome::Failed(error, telemetry),
        };
        // The submitting connection thread may have gone away; the
        // outcome is then dropped with the channel.
        let _ = job.tx.send(outcome);
    }
}

/// Runs a job's executor, containing a panic: the job fails with an
/// [`ErrorCode::Internal`] error (the flag is `true`) instead of
/// unwinding through the worker, which keeps draining the queue.
fn run_guarded(
    execute: impl FnOnce() -> (ServiceResponse, Vec<StageSpan>),
) -> (ServiceResponse, Vec<StageSpan>, bool) {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(execute)) {
        Ok((response, stages)) => (response, stages, false),
        Err(panic) => {
            let detail = panic
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("non-string panic payload");
            let error = ServiceError {
                code: ErrorCode::Internal,
                input: None,
                message: format!("job panicked: {detail}"),
            };
            (ServiceResponse::Err(error), Vec::new(), true)
        }
    }
}

/// Writes one Perfetto-format trace file for a completed job when the
/// daemon was started with a trace directory: a synthetic root
/// `service.job` span plus the telemetry stage tree, rendered through
/// the standard chrome-tracing exporter. Best-effort — I/O failures
/// are counted, not fatal.
fn write_job_trace(shared: &Shared, job: &Job, flight_seq: u64, telemetry: &RequestTelemetry) {
    let Some(dir) = &shared.trace_dir else { return };
    let mut events = Vec::new();
    let mut next_id = 1u64;
    let root_id = next_id;
    next_id += 1;
    events.push(Event {
        id: root_id,
        parent: None,
        name: "service.job",
        args: vec![
            ("op", job.request.op().to_string()),
            ("request_id", job.request_id.clone()),
            ("cache", telemetry.cache.as_str().to_string()),
            ("queue_wait_ns", telemetry.queue_wait_ns.to_string()),
            ("flight_seq", flight_seq.to_string()),
        ],
        thread: 1,
        start_ns: 0,
        dur_ns: telemetry.service_ns,
    });
    fn push_stages(events: &mut Vec<Event>, next_id: &mut u64, parent: u64, stages: &[StageSpan]) {
        for stage in stages {
            let id = *next_id;
            *next_id += 1;
            events.push(Event {
                id,
                parent: Some(parent),
                name: stage.name,
                args: vec![],
                thread: 1,
                start_ns: stage.start_ns,
                dur_ns: stage.dur_ns,
            });
            push_stages(events, next_id, id, &stage.children);
        }
    }
    push_stages(&mut events, &mut next_id, root_id, &telemetry.stages);
    let snapshot = TraceSnapshot {
        schema_version: SCHEMA_VERSION,
        events,
        counters: telemetry.counters.clone(),
        gauges: Vec::new(),
        histograms: Vec::new(),
    };
    let seq = shared.trace_seq.fetch_add(1, Ordering::Relaxed);
    let path = dir.join(format!("job-{seq:06}.json"));
    match std::fs::write(&path, snapshot.to_chrome_trace_json()) {
        Ok(()) => shared.count("service.trace.exports"),
        Err(_) => shared.count("service.trace.export_errors"),
    }
}

fn respond(stream: &mut TcpStream, line: &str) -> bool {
    stream.write_all(line.as_bytes()).is_ok() && stream.flush().is_ok()
}

/// The longest request line the daemon reads, in bytes. A longer line
/// is answered with a `bad_request` envelope and closes its connection
/// unread, so no client can make the daemon buffer without bound.
pub const MAX_REQUEST_BYTES: usize = 16 << 20;

fn handle_connection(stream: TcpStream, shared: &Shared) {
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut buf = Vec::new();
    loop {
        buf.clear();
        let limit = MAX_REQUEST_BYTES as u64 + 1;
        match reader.by_ref().take(limit).read_until(b'\n', &mut buf) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        let line = match buf.strip_suffix(b"\n") {
            Some(line) => line.strip_suffix(b"\r").unwrap_or(line),
            None if buf.len() > MAX_REQUEST_BYTES => {
                shared.count("service.requests");
                shared.count("service.requests.oversized");
                let message = format!("request line exceeds {MAX_REQUEST_BYTES} bytes");
                let error = ServiceError::bad_request(message);
                respond(
                    &mut writer,
                    &ServiceResponse::Err(error).to_json("-", false),
                );
                break;
            }
            None => &buf,
        };
        let parsed = match std::str::from_utf8(line) {
            Ok(line) if line.trim().is_empty() => continue,
            Ok(line) => ServiceRequest::parse(line),
            Err(e) => Err(ServiceError::bad_request(format!(
                "request line is not UTF-8: {e}"
            ))),
        };
        shared.count("service.requests");
        let (request_id, request) = match parsed {
            Ok(parsed) => parsed,
            Err(error) => {
                shared.count("service.requests.malformed");
                let envelope = ServiceResponse::Err(error).to_json("-", false);
                if !respond(&mut writer, &envelope) {
                    break;
                }
                continue;
            }
        };
        let done = match request {
            ServiceRequest::Stats | ServiceRequest::Metrics | ServiceRequest::Events => {
                !respond(&mut writer, &inline_envelope(shared, &request_id, &request))
            }
            ServiceRequest::Shutdown => {
                shared.count("service.requests.shutdown");
                let envelope = ServiceResponse::Ok(shared.daemon_payload(&request))
                    .to_json(&request_id, false);
                respond(&mut writer, &envelope);
                initiate_shutdown(shared);
                true
            }
            request => !handle_job_request(&mut writer, shared, &request_id, request),
        };
        if done {
            break;
        }
    }
}

/// Serves a daemon-side op on the connection thread (no queue, no
/// cache) with request-scoped telemetry: one `render` stage covering
/// payload construction.
fn inline_envelope(shared: &Shared, request_id: &str, request: &ServiceRequest) -> String {
    let started = shared.recorder.now_ns();
    let counters_before = CounterSnapshot::capture_from(&shared.recorder);
    let rendered = shared.daemon_payload(request).to_json();
    let service_ns = shared.recorder.now_ns().saturating_sub(started);
    shared
        .recorder
        .histogram_record(request.latency_histogram(), service_ns);
    let telemetry = RequestTelemetry {
        cache: CacheStatus::Uncached,
        queue_wait_ns: 0,
        service_ns,
        stages: vec![StageSpan::leaf("render", 0, service_ns)],
        counters: counters_before.delta_since_from(&shared.recorder),
    };
    envelope_ok(request_id, false, Some(&telemetry), &rendered)
}

/// Runs one engine-backed request through cache + queue. Returns
/// `false` when the client connection is gone.
fn handle_job_request(
    writer: &mut TcpStream,
    shared: &Shared,
    request_id: &str,
    request: ServiceRequest,
) -> bool {
    let received = shared.recorder.now_ns();
    // Cacheable requests are content-addressed up front; a graph that
    // does not parse fails here, before taking a queue slot (state
    // `failed` without ever being `pending`). No telemetry: the
    // request never reached the service path.
    let cache_key = if request.cacheable() {
        match request.cache_key() {
            Ok(pair) => Some(pair),
            Err(error) => {
                shared.count("service.jobs.failed");
                return respond(
                    writer,
                    &ServiceResponse::Err(error).to_json(request_id, false),
                );
            }
        }
    } else {
        None
    };
    if let Some((fp, canonical)) = &cache_key {
        let lookup = lock_cache(shared).get(fp, canonical);
        match lookup {
            CacheLookup::Hit(payload) => {
                shared.count("service.cache.hits");
                // A hit's service time is the lookup itself; telemetry
                // is composed fresh around the shared payload bytes.
                let service_ns = shared.recorder.now_ns().saturating_sub(received);
                let telemetry = RequestTelemetry {
                    cache: CacheStatus::Hit,
                    queue_wait_ns: 0,
                    service_ns,
                    stages: vec![StageSpan::leaf("cache.lookup", 0, service_ns)],
                    counters: vec![("service.cache.hits".to_string(), 1)],
                };
                shared
                    .recorder
                    .histogram_record(request.latency_histogram(), service_ns);
                shared
                    .flight
                    .record(telemetry.to_flight_record(request.op(), JobState::Complete.as_str()));
                return respond(
                    writer,
                    &envelope_ok(request_id, true, Some(&telemetry), &payload),
                );
            }
            CacheLookup::Collision => {
                shared.count("service.cache.collisions");
                shared.count("service.cache.misses");
            }
            CacheLookup::Miss => shared.count("service.cache.misses"),
        }
    }
    let (tx, rx) = mpsc::channel();
    let job = Job {
        request,
        request_id: request_id.to_string(),
        cache_key: cache_key.clone(),
        enqueued_ns: shared.recorder.now_ns(),
        tx,
    };
    match shared.queue.try_push(job) {
        Err(_rejected) => {
            shared.count("service.jobs.rejected");
            let envelope = ServiceResponse::Rejected {
                message: format!(
                    "job queue full ({} pending); retry later",
                    shared.queue.depth()
                ),
            }
            .to_json(request_id, false);
            respond(writer, &envelope)
        }
        Ok(()) => {
            shared.count("service.jobs.enqueued");
            shared
                .recorder
                .gauge_set("service.queue.depth", shared.queue.depth() as u64);
            match rx.recv() {
                Ok(JobOutcome::Complete(payload, telemetry)) => {
                    if let Some((fp, canonical)) = cache_key {
                        let mut cache = lock_cache(shared);
                        let evicted = cache.insert(fp, canonical, Arc::clone(&payload));
                        let entries = cache.len() as u64;
                        drop(cache);
                        shared
                            .recorder
                            .counter_add("service.cache.evictions", evicted as u64);
                        shared.recorder.gauge_set("service.cache.entries", entries);
                    }
                    respond(
                        writer,
                        &envelope_ok(request_id, false, Some(&telemetry), &payload),
                    )
                }
                Ok(JobOutcome::Failed(error, telemetry)) => respond(
                    writer,
                    &ServiceResponse::Err(error).to_json_with_telemetry(
                        request_id,
                        false,
                        Some(&telemetry),
                    ),
                ),
                Err(_) => {
                    // The queue was closed with the job still pending.
                    let envelope = envelope_error(
                        request_id,
                        "error",
                        ErrorCode::Unavailable.as_str(),
                        None,
                        "server shutting down before the job ran",
                        None,
                    );
                    respond(writer, &envelope)
                }
            }
        }
    }
}

fn lock_cache(shared: &Shared) -> std::sync::MutexGuard<'_, ResultCache> {
    shared.cache.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_panicking_job_fails_alone_and_the_next_job_completes() {
        let (response, stages, panicked) = run_guarded(|| panic!("injected fault"));
        assert!(panicked);
        assert!(stages.is_empty());
        let ServiceResponse::Err(error) = response else {
            panic!(
                "expected an internal error, got status {}",
                response.status()
            );
        };
        assert_eq!(error.code.as_str(), "internal");
        assert_eq!(error.message, "job panicked: injected fault");
        let request = ServiceRequest::Plan {
            graph: "graph fig2\nedge A B 20 10\nedge B C 20 10\n".to_string(),
            method: Default::default(),
            model: Default::default(),
        };
        let (response, _, panicked) = run_guarded(|| execute_request_cached_timed(&request));
        assert!(!panicked);
        assert_eq!(response.status(), "ok");
    }
}
