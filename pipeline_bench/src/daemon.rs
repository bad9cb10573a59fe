//! The daemon workloads, `daemon_hot` and `daemon_cold`: an in-process
//! loopback daemon bound with the `sdfmem serve` defaults, driven open
//! loop over two client connections, one client thread each.

use std::collections::{BTreeMap, HashSet};
use std::sync::Mutex;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sdf_apps::random::{random_sdf_graph, RandomGraphConfig};
use sdf_apps::scale::scale_chain;
use sdf_core::graph::SdfGraph;
use sdf_core::io::to_text;
use sdf_service::api::{
    execute_request_cached, MemoryModel, OrderMethod, ResponsePayload, ServiceRequest,
    ServiceResponse,
};
use sdf_service::client::{Client, WireResponse};
use sdf_service::server::{Server, ServerConfig};
use sdf_trace::json::{self, Json};
use sdfmem::incremental::{apply_edits, EditOp, EditScript};

use crate::inproc::{corpus, shuffle};
use crate::loadgen::{
    bisect, latencies_ms, ms, open_loop, poisson_dues, step_passes, Sample, Zipf,
};
use crate::report::Report;
use crate::spans::{self, ns, SpanLog};
use crate::{stats, Options};

/// Client connections, one client thread each.
pub const CONNECTIONS: usize = 2;

/// Ladder probes per run.
const LADDER_STEPS: usize = 8;

/// A lag above this makes a request late.
const LATE: Duration = Duration::from_millis(1);

/// The two mode graphs shipped as examples.
const MODE_GRAPHS: [&str; 2] = [
    include_str!("../../examples/graphs/codec_ip.sdfm"),
    include_str!("../../examples/graphs/modem_acq_track.sdfm"),
];

/// The edit that seeds the daemon's session during set-up. It is fixed,
/// so the seeded synthesis is the same under every seed.
const SEED_EDIT: &str = "set-delay a0 a1 1\n";

/// How one daemon workload is driven.
struct Profile {
    /// Fixed reference rate, the same on every commit.
    reference_rps: f64,
    /// Ladder range.
    ladder: (f64, f64),
    /// Latency limit a ladder step must meet.
    limit: Duration,
}

const HOT: Profile = Profile {
    reference_rps: 25.0,
    ladder: (5.0, 20_000.0),
    limit: Duration::from_millis(100),
};

const COLD: Profile = Profile {
    reference_rps: 20.0,
    ladder: (2.0, 2_000.0),
    limit: Duration::from_millis(250),
};

/// A running loopback daemon with its client connections.
struct Daemon {
    server: Server,
    clients: Vec<Mutex<Client>>,
}

impl Daemon {
    fn start() -> Result<Daemon, String> {
        let server = Server::bind("127.0.0.1:0", ServerConfig::default())?;
        let addr = server.local_addr().to_string();
        let clients = (0..CONNECTIONS)
            .map(|_| Client::connect(&addr).map(Mutex::new))
            .collect::<Result<Vec<_>, _>>();
        match clients {
            Ok(clients) => Ok(Daemon { server, clients }),
            Err(e) => {
                server.shutdown();
                server.wait();
                Err(e)
            }
        }
    }

    fn call(
        &self,
        worker: usize,
        id: &str,
        request: &ServiceRequest,
    ) -> Result<WireResponse, String> {
        self.clients[worker]
            .lock()
            .expect("client lock poisoned")
            .call(id, request)
    }

    /// Closes the connections, then stops the server and joins its threads.
    fn stop(self) {
        let Daemon { server, clients } = self;
        drop(clients);
        server.shutdown();
        server.wait();
    }
}

/// A request with the class it is summarised under.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Keyed {
    /// Class name (`analyze:satrec`, `edit`, …).
    pub class: String,
    /// The request.
    pub request: ServiceRequest,
}

/// The hot key set: {analyze, plan, simulate, explain} × the corpus
/// graphs under 100 actors, plus `modes` on both mode-graph examples.
pub fn hot_keys() -> Vec<Keyed> {
    let mut keys = Vec::new();
    for input in corpus().into_iter().filter(|i| i.graph.actor_count() < 100) {
        let graph = input.text;
        let name = input.graph.name().to_string();
        let (method, model) = (OrderMethod::default(), MemoryModel::default());
        for (op, request) in [
            (
                "analyze",
                ServiceRequest::Analyze {
                    graph: graph.clone(),
                    serial: false,
                    full: false,
                },
            ),
            (
                "plan",
                ServiceRequest::Plan {
                    graph: graph.clone(),
                    method,
                    model,
                },
            ),
            (
                "simulate",
                ServiceRequest::Simulate {
                    graph: graph.clone(),
                    method,
                    model,
                },
            ),
            (
                "explain",
                ServiceRequest::Explain {
                    graph: graph.clone(),
                },
            ),
        ] {
            keys.push(Keyed {
                class: format!("{op}:{name}"),
                request,
            });
        }
    }
    for (i, text) in MODE_GRAPHS.iter().enumerate() {
        keys.push(Keyed {
            class: format!("modes:{i}"),
            request: ServiceRequest::Modes {
                graph: (*text).to_string(),
            },
        });
    }
    keys
}

/// Due times of one phase: a Poisson sample at `rate` over `span` that
/// depends on the rate and span only. Tail latency over a 12 s Poisson
/// sample varies by a fifth from sample to sample, more than any bound
/// tolerates, so every seed meets the same bursts and `--seed` draws
/// what is requested.
pub fn arrivals(rate: f64, span: Duration) -> Vec<Duration> {
    let mut rng = StdRng::seed_from_u64(rate.to_bits() ^ span.as_nanos() as u64);
    poisson_dues(&mut rng, rate, span)
}

/// One phase of hot traffic: [`arrivals`] at `rate`, each naming a key
/// drawn Zipf(1.1) over the seeded `ranking` of the keys.
pub fn hot_phase(
    rng: &mut StdRng,
    ranking: &[usize],
    rate: f64,
    span: Duration,
) -> Vec<(Duration, usize)> {
    let zipf = Zipf::new(ranking.len(), 1.1);
    arrivals(rate, span)
        .into_iter()
        .map(|due| (due, ranking[zipf.sample(rng)]))
        .collect()
}

/// The never-repeating cold request stream: 60 % `analyze` and 25 %
/// `simulate` on fresh random graphs, 15 % `edit` along a chain on
/// `scale_chain_64` in which each edit's base is the previous edit's
/// result.
pub struct ColdStream {
    rng: StdRng,
    chain: SdfGraph,
    seen: HashSet<String>,
}

impl ColdStream {
    /// The stream for `seed`, starting from the seeded session's graph.
    pub fn new(seed: u64) -> ColdStream {
        ColdStream {
            rng: StdRng::seed_from_u64(seed ^ 0x636f_6c64),
            chain: seeded_chain(),
            seen: HashSet::new(),
        }
    }

    /// One phase: [`arrivals`] at `rate`, each with a new request.
    pub fn phase(&mut self, rate: f64, span: Duration) -> Vec<(Duration, Keyed)> {
        arrivals(rate, span)
            .into_iter()
            .map(|due| (due, self.next_request()))
            .collect()
    }

    fn next_request(&mut self) -> Keyed {
        loop {
            let pick = self.rng.gen_range(0..100u32);
            let keyed = if pick < 85 {
                let actors = self.rng.gen_range(24..=48usize);
                let graph = to_text(&random_sdf_graph(
                    &RandomGraphConfig::paper_style(actors),
                    &mut self.rng,
                ));
                if pick < 60 {
                    Keyed {
                        class: "analyze".into(),
                        request: ServiceRequest::Analyze {
                            graph,
                            serial: false,
                            full: false,
                        },
                    }
                } else {
                    Keyed {
                        class: "simulate".into(),
                        request: ServiceRequest::Simulate {
                            graph,
                            method: OrderMethod::Apgan,
                            model: MemoryModel::Shared,
                        },
                    }
                }
            } else {
                let (request, edited) = self.next_edit();
                if self.seen.contains(&request.to_json("")) {
                    continue;
                }
                self.chain = edited;
                Keyed {
                    class: "edit".into(),
                    request,
                }
            };
            if self.seen.insert(keyed.request.to_json("")) {
                return keyed;
            }
        }
    }

    /// A one-op edit of the chain's current graph: a delay of whole sink
    /// firings, or a ratio-preserving rate scaling, so the repetitions
    /// vector never grows.
    fn next_edit(&mut self) -> (ServiceRequest, SdfGraph) {
        let edges: Vec<_> = self.chain.edges().map(|(_, e)| *e).collect();
        let e = edges[self.rng.gen_range(0..edges.len())];
        let (src, snk) = (
            self.chain.actor_name(e.src).to_string(),
            self.chain.actor_name(e.snk).to_string(),
        );
        let op = if self.rng.gen_bool(0.5) {
            EditOp::SetDelay {
                src,
                snk,
                ordinal: 0,
                delay: e.cons * self.rng.gen_range(0..=3u64),
            }
        } else {
            let g = sdf_core::math::gcd(e.prod, e.cons);
            let f = self.rng.gen_range(1..=3u64);
            EditOp::SetRate {
                src,
                snk,
                ordinal: 0,
                prod: e.prod / g * f,
                cons: e.cons / g * f,
            }
        };
        let script = EditScript { ops: vec![op] };
        let edited = apply_edits(&self.chain, &script).expect("chain edits keep the graph valid");
        let request = ServiceRequest::Edit {
            graph: to_text(&self.chain),
            edits: script.to_text(),
        };
        (request, edited)
    }
}

fn seeding_request() -> ServiceRequest {
    ServiceRequest::Edit {
        graph: to_text(&scale_chain(64)),
        edits: SEED_EDIT.to_string(),
    }
}

fn seeded_chain() -> SdfGraph {
    let script = EditScript::parse(SEED_EDIT).expect("seeding edit parses");
    apply_edits(&scale_chain(64), &script).expect("seeding edit applies")
}

/// One stage of the response telemetry, named after the layer it times.
#[derive(Clone, Debug)]
struct Stage {
    layer: &'static str,
    start_ns: u64,
    dur_ns: u64,
    children: Vec<Stage>,
}

/// What the benchmark keeps of one response.
#[derive(Clone, Debug)]
struct Record {
    worker: usize,
    cached: bool,
    queue_ns: u64,
    service_ns: u64,
    stages: Vec<Stage>,
}

/// The layer a telemetry stage belongs to.
fn stage_layer(name: &str) -> &'static str {
    match name {
        "parse" => "core.parse",
        "engine" => "engine",
        "engine.schedule" => "sched.sdppo",
        "engine.lifetime" => "lifetime.tree",
        "engine.wig" => "lifetime.wig",
        "engine.alloc" => "alloc.first_fit",
        "execute" => "codegen.oracle",
        "render" => "service.render",
        "cache.lookup" => "service.cache",
        "apply" => "service.apply",
        "lower" => "service.lower",
        "explain" => "service.explain",
        _ => "service.other",
    }
}

fn parse_stages(value: Option<&Json>) -> Vec<Stage> {
    value
        .and_then(Json::as_array)
        .unwrap_or_default()
        .iter()
        .map(|s| Stage {
            layer: stage_layer(s.get("name").and_then(Json::as_str).unwrap_or_default()),
            start_ns: s.get("start_ns").and_then(Json::as_num).unwrap_or(0.0) as u64,
            dur_ns: s.get("dur_ns").and_then(Json::as_num).unwrap_or(0.0) as u64,
            children: parse_stages(s.get("children")),
        })
        .collect()
}

/// The untimed half of a round trip: the response must be `ok`, and its
/// telemetry is kept for the per-layer breakdown.
fn record(worker: usize, reply: &Result<WireResponse, String>) -> Result<Record, String> {
    let response = reply.as_ref().map_err(Clone::clone)?;
    if !response.is_ok() {
        let e = response
            .error
            .as_ref()
            .map_or("no error object".to_string(), |e| {
                format!("{}: {}", e.code, e.message)
            });
        return Err(format!("{} response: {e}", response.status));
    }
    let telemetry = response
        .telemetry
        .as_deref()
        .ok_or("response without telemetry")?;
    let doc = json::parse(telemetry).map_err(|e| format!("bad telemetry: {e}"))?;
    let num = |key: &str| doc.get(key).and_then(Json::as_num).unwrap_or(0.0) as u64;
    Ok(Record {
        worker,
        cached: response.cached,
        queue_ns: num("queue_wait_ns"),
        service_ns: num("service_ns"),
        stages: parse_stages(doc.get("stages")),
    })
}

/// A finished phase: its due times, samples and kept responses.
struct Phase {
    dues: Vec<Duration>,
    samples: Vec<Option<Sample>>,
    records: Vec<Option<Record>>,
}

impl Phase {
    fn sent(&self) -> impl Iterator<Item = (&Sample, Option<&Record>)> {
        self.samples
            .iter()
            .zip(&self.records)
            .filter_map(|(s, r)| s.as_ref().map(|s| (s, r.as_ref())))
    }
}

/// Sends `requests` open loop. The payload of each request `i` that
/// `keep_payload(i)` selects goes into `payloads`; failures are added to
/// `report`.
fn drive(
    daemon: &Daemon,
    requests: &[(Duration, usize)],
    keys: &[Keyed],
    span: Duration,
    keep_payload: &(dyn Fn(usize) -> bool + Sync),
    payloads: &Mutex<BTreeMap<usize, String>>,
    report: &mut Report,
) -> Phase {
    let dues: Vec<Duration> = requests.iter().map(|(d, _)| *d).collect();
    let records: Vec<Mutex<Option<Record>>> = requests.iter().map(|_| Mutex::new(None)).collect();
    let errors = Mutex::new(Vec::new());
    let samples = open_loop(
        &dues,
        CONNECTIONS,
        span,
        |worker, i| {
            (
                worker,
                daemon.call(worker, &format!("r{i}"), &keys[requests[i].1].request),
            )
        },
        |i, (worker, reply)| {
            let class = requests[i].1;
            match record(worker, &reply) {
                Ok(r) => {
                    if keep_payload(i) {
                        if let Some(p) = reply.ok().and_then(|w| w.payload) {
                            payloads.lock().expect("payload map poisoned").insert(i, p);
                        }
                    }
                    *records[i].lock().expect("record slot poisoned") = Some(r);
                    true
                }
                Err(e) => {
                    errors
                        .lock()
                        .expect("error list poisoned")
                        .push(format!("{}: {e}", keys[class].class));
                    false
                }
            }
        },
    );
    let phase = Phase {
        dues,
        records: records
            .into_iter()
            .map(|m| m.into_inner().expect("record slot poisoned"))
            .collect(),
        samples,
    };
    let sent = phase.samples.iter().flatten().count() as u64;
    report.attempted += sent;
    for e in errors.into_inner().expect("error list poisoned") {
        report.failed += 1;
        report.problem(e);
    }
    phase
}

/// What set-up leaves ready for measurement.
struct SetUp {
    daemon: Daemon,
    /// Each base key's first payload.
    warm: Vec<String>,
    keys: Vec<Keyed>,
    rng: StdRng,
    cold: ColdStream,
    reference: Vec<(Duration, usize)>,
}

/// Runs the daemon workload named `workload`.
pub fn run(workload: &str, opts: &Options, report: &mut Report) {
    let hot = workload == "daemon_hot";
    let profile = if hot { &HOT } else { &COLD };
    let mut rng = StdRng::seed_from_u64(opts.seed ^ 0x0068_6f74);
    // Keys are fixed for hot traffic and grow with the stream for cold.
    let base_keys = if hot {
        hot_keys()
    } else {
        vec![Keyed {
            class: "edit".into(),
            request: seeding_request(),
        }]
    };
    let mut ranking: Vec<usize> = (0..base_keys.len()).collect();
    shuffle(&mut ranking, &mut rng);
    // Untraced runs split the time between the reference phase and the
    // ladder; a traced run spends it all at the reference rate.
    let half = opts.seconds / 2;
    let reference_span = if opts.trace { opts.seconds } else { half };

    // Set-up: bind, connect, warm the cache (hot) or seed the edit
    // session (cold), and draw the reference phase's requests.
    let set_up = crate::set_up(
        opts,
        || {
            let daemon = Daemon::start()?;
            let warm = match warm_up(&daemon, &base_keys) {
                Ok(warm) => warm,
                Err(e) => {
                    daemon.stop();
                    return Err(e);
                }
            };
            let (mut keys, mut rng, mut cold) =
                (base_keys.clone(), rng.clone(), ColdStream::new(opts.seed));
            let reference = if hot {
                hot_phase(&mut rng, &ranking, profile.reference_rps, reference_span)
            } else {
                phase_keys(cold.phase(profile.reference_rps, reference_span), &mut keys)
            };
            Ok(SetUp {
                daemon,
                warm,
                keys,
                rng,
                cold,
                reference,
            })
        },
        |s| s.daemon.stop(),
    );
    let (
        setup_s,
        SetUp {
            daemon,
            warm,
            mut keys,
            mut rng,
            mut cold,
            reference,
        },
    ) = match set_up {
        Ok(done) => done,
        Err(e) => return report.problem(format!("daemon set-up: {e}")),
    };

    // Hot: every payload is compared with the warm one. Cold: a seeded
    // 10 % sample is compared with the in-process backend.
    let mut verify_rng = StdRng::seed_from_u64(opts.seed ^ 0x7665_7269);
    let sampled: Vec<bool> = reference
        .iter()
        .map(|_| hot || verify_rng.gen_bool(0.1))
        .collect();
    let payloads = Mutex::new(BTreeMap::new());
    let phase = drive(
        &daemon,
        &reference,
        &keys,
        reference_span,
        &|i| sampled[i],
        &payloads,
        report,
    );

    if opts.trace {
        per_layer(&daemon, &phase, opts, report);
    } else {
        report.metric("setup_s", setup_s, "s");
        reference_metrics(&phase, reference_span, report);
        let step = half / LADDER_STEPS as u32;
        let mut k = 0;
        let (lo, hi) = profile.ladder;
        let max_rate = bisect(lo, hi, LADDER_STEPS, |rate| {
            k += 1;
            let requests = if hot {
                hot_phase(&mut rng, &ranking, rate, step)
            } else {
                phase_keys(cold.phase(rate, step), &mut keys)
            };
            let ladder = drive(
                &daemon,
                &requests,
                &keys,
                step,
                &|_| false,
                &Mutex::new(BTreeMap::new()),
                report,
            );
            let passed = step_passes(&ladder.samples, step, profile.limit);
            let latencies = stats::sorted(&latencies_ms(&ladder.dues, &ladder.samples, step));
            report.metric(format!("ladder.{k}.rate_rps"), rate, "1/s");
            report.metric(
                format!("ladder.{k}.requests"),
                latencies.len() as f64,
                "count",
            );
            report.metric(
                format!("ladder.{k}.p50_ms"),
                stats::percentile(&latencies, 50.0),
                "ms",
            );
            report.metric(
                format!("ladder.{k}.p95_ms"),
                stats::percentile(&latencies, 95.0),
                "ms",
            );
            report.metric(
                format!("ladder.{k}.pass"),
                f64::from(u8::from(passed)),
                "bool",
            );
            passed
        });
        report.metric("max_rate_rps", max_rate, "1/s");
    }

    let payloads = payloads.into_inner().expect("payload map poisoned");
    daemon.stop();
    let pool = if hot {
        verify_hot(&keys, &warm, &reference, &payloads, report)
    } else {
        verify_cold(&keys, &warm, &reference, &payloads, report)
    };
    report.metric("shared_pool_words", pool as f64, "words");
}

/// Appends a phase's requests to the key list (each cold request is its
/// own key) and returns the phase as (due, key index) pairs.
fn phase_keys(phase: Vec<(Duration, Keyed)>, keys: &mut Vec<Keyed>) -> Vec<(Duration, usize)> {
    phase
        .into_iter()
        .map(|(due, keyed)| {
            keys.push(keyed);
            (due, keys.len() - 1)
        })
        .collect()
}

/// Sends every key once, split over the connections, and returns each
/// key's payload.
fn warm_up(daemon: &Daemon, keys: &[Keyed]) -> Result<Vec<String>, String> {
    let results: Vec<Result<Vec<(usize, String)>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|worker| {
                s.spawn(move || {
                    (worker..keys.len())
                        .step_by(CONNECTIONS)
                        .map(|i| {
                            let reply = daemon.call(worker, &format!("warm{i}"), &keys[i].request);
                            record(worker, &reply)
                                .map_err(|e| format!("{}: {e}", keys[i].class))?;
                            let payload = reply.ok().and_then(|r| r.payload).ok_or("no payload")?;
                            Ok((i, payload))
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("warm-up thread panicked"))
            .collect()
    });
    let mut payloads = vec![String::new(); keys.len()];
    for part in results {
        for (i, payload) in part? {
            payloads[i] = payload;
        }
    }
    Ok(payloads)
}

/// Latency, geometric-mean and cache rows of the reference phase.
fn reference_metrics(phase: &Phase, span: Duration, report: &mut Report) {
    let latencies = latencies_ms(&phase.dues, &phase.samples, span);
    let sorted = stats::sorted(&latencies);
    report.metric("latency_ms.p50", stats::percentile(&sorted, 50.0), "ms");
    report.metric("latency_ms.p95", stats::percentile(&sorted, 95.0), "ms");
    report.metric("latency_ms.samples", sorted.len() as f64, "count");
    report.metric(
        "latency_ms.top_percentile",
        stats::highest_supported(sorted.len()).unwrap_or(0.0),
        "pct",
    );
    // Per-class medians would rest on one or two samples for the keys
    // Zipf ranks low, so the daemon's geometric mean runs over requests.
    report.metric("compile_ms.geomean", stats::geomean(&latencies), "ms");
    let sent: Vec<_> = phase.sent().collect();
    let hits = sent
        .iter()
        .filter(|(_, r)| r.is_some_and(|r| r.cached))
        .count();
    report.metric(
        "service.cache.hit_ratio",
        hits as f64 / sent.len().max(1) as f64,
        "ratio",
    );
    report.metric(
        "requests.abandoned",
        (phase.samples.len() - sent.len()) as f64,
        "count",
    );
}

/// The traced run's per-layer metrics: each request's round trip is a
/// `service.wire` span holding its queue wait and the worker's service
/// time, which holds the telemetry's stage tree.
fn per_layer(daemon: &Daemon, phase: &Phase, opts: &Options, report: &mut Report) {
    let mut log = SpanLog::default();
    let (mut hits, mut queue_ms, mut lags_ms, mut late) = (0usize, Vec::new(), Vec::new(), 0usize);
    let mut n = 0u64;
    for (op, (sample, record)) in phase.sent().enumerate() {
        let Some(r) = record else { continue };
        n += 1;
        let lane = r.worker as u64;
        let rtt = ns(sample.latency.saturating_sub(sample.lag));
        let sent = ns(sample.done).saturating_sub(rtt);
        let wire = log.push("service.wire", None, op as u64, lane, sent, rtt);
        log.push(
            "service.queue",
            Some(wire),
            op as u64,
            lane,
            sent,
            r.queue_ns,
        );
        let worker_start = sent + r.queue_ns;
        let worker = log.push(
            "service.worker",
            Some(wire),
            op as u64,
            lane,
            worker_start,
            r.service_ns,
        );
        push_stages(&mut log, worker, op as u64, lane, worker_start, &r.stages);
        hits += usize::from(r.cached);
        queue_ms.push(r.queue_ns as f64 / 1e6);
        lags_ms.push(ms(sample.lag));
        late += usize::from(sample.lag > LATE);
    }
    let n_f = n.max(1) as f64;
    let totals = spans::layer_totals(log.spans());
    let check = spans::additivity(log.spans());
    let delta = delta_ratio(daemon).unwrap_or_else(|e| {
        report.problem(format!("stats: {e}"));
        0.0
    });
    let mut values: BTreeMap<String, f64> = totals
        .iter()
        .map(|(layer, total)| (format!("{layer}.self_ms"), *total as f64 / n_f / 1e6))
        .collect();
    let engine_self = values.remove("engine.self_ms").unwrap_or(0.0);
    for (name, value) in [
        ("engine.overhead_ms", engine_self),
        (
            "service.queue.wait_ms.p95",
            stats::percentile(&stats::sorted(&queue_ms), 95.0),
        ),
        ("service.cache.hit_ratio", hits as f64 / n_f),
        ("service.session.delta_ratio", delta),
        (
            "loadgen.lag_ms.p95",
            stats::percentile(&stats::sorted(&lags_ms), 95.0),
        ),
        ("loadgen.late_frac", late as f64 / n_f),
        ("trace.op_ms", check.wall_ns as f64 / n_f / 1e6),
        ("trace.additivity_error", check.error()),
        ("trace.ops", n as f64),
    ] {
        values.insert(name.to_string(), value);
    }
    report.layers(&values);
    let wire = totals.get("service.wire").copied().unwrap_or(0);
    report.metric(
        "service.wire.share",
        wire as f64 / check.wall_ns.max(1) as f64,
        "ratio",
    );
    if check.error() > 0.05 {
        report.problem(format!(
            "layer self times sum to {:.3} ms against a round-trip total of {:.3} ms",
            check.layers_ns as f64 / 1e6,
            check.wall_ns as f64 / 1e6
        ));
    }
    crate::write_chrome_trace(opts, &log, report);
}

fn push_stages(
    log: &mut SpanLog,
    parent: usize,
    op: u64,
    lane: u64,
    base_ns: u64,
    stages: &[Stage],
) {
    for stage in stages {
        let id = log.push(
            stage.layer,
            Some(parent),
            op,
            lane,
            base_ns + stage.start_ns,
            stage.dur_ns,
        );
        push_stages(log, id, op, lane, base_ns, &stage.children);
    }
}

/// Delta runs over edit runs, from the daemon's `stats` op.
fn delta_ratio(daemon: &Daemon) -> Result<f64, String> {
    let response = daemon.call(0, "stats", &ServiceRequest::Stats)?;
    let payload = response.payload.ok_or("stats returned no payload")?;
    let doc = json::parse(&payload)?;
    let counter = |name: &str| {
        doc.get("counters")
            .and_then(|c| c.get(name))
            .and_then(Json::as_num)
            .unwrap_or(0.0)
    };
    let delta = counter("engine.incremental.delta_runs");
    let runs = delta + counter("engine.incremental.cold_runs");
    Ok(if runs > 0.0 { delta / runs } else { 0.0 })
}

/// The in-process payload of `request`, as the daemon's workers compute it.
fn in_process(request: &ServiceRequest) -> Result<ResponsePayload, String> {
    match execute_request_cached(request) {
        ServiceResponse::Ok(payload) => Ok(payload),
        ServiceResponse::Err(e) => Err(e.message),
        ServiceResponse::Rejected { message } => Err(message),
    }
}

/// `payload` with every wall-clock member (a number under a key ending
/// in `_us`) zeroed. Engine reports embed their own timings, so two runs
/// of one `analyze` agree on everything else, byte for byte. A raw `"`
/// cannot occur inside a JSON string, so `_us":` only ends a key.
pub fn without_timings(payload: &str) -> String {
    let mut out = String::with_capacity(payload.len());
    let mut rest = payload;
    while let Some(i) = rest.find("_us\":") {
        let (head, tail) = rest.split_at(i + "_us\":".len());
        out.push_str(head);
        out.push('0');
        let end = tail
            .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
            .unwrap_or(tail.len());
        rest = &tail[end..];
    }
    out.push_str(rest);
    out
}

/// Whether the daemon's payload bytes match the in-process payload:
/// exactly, apart from an engine report's own timings.
fn same_payload(in_process: &ResponsePayload, daemon: &str) -> bool {
    let local = in_process.to_json();
    match in_process {
        ResponsePayload::Analyze { .. } => without_timings(&local) == without_timings(daemon),
        _ => local == daemon,
    }
}

fn winning_pool(payload: &ResponsePayload) -> u64 {
    match payload {
        ResponsePayload::Analyze { synthesis, .. } => synthesis.analysis.shared_total(),
        ResponsePayload::Modes { synthesis } => synthesis.merged_pool_words,
        ResponsePayload::Edit { analysis, .. } => analysis.shared_total(),
        _ => 0,
    }
}

/// Every warm payload must equal the in-process one, and every measured
/// payload its key's warm one. Returns the summed winning pools of the
/// analyzed graphs and the mode graphs.
fn verify_hot(
    keys: &[Keyed],
    warm: &[String],
    reference: &[(Duration, usize)],
    payloads: &BTreeMap<usize, String>,
    report: &mut Report,
) -> u64 {
    let mut pool = 0;
    for (key, daemon_payload) in keys.iter().zip(warm) {
        match in_process(&key.request) {
            Ok(p) if same_payload(&p, daemon_payload) => pool += winning_pool(&p),
            Ok(_) => report.problem(format!(
                "{}: daemon payload differs from execute_request_cached",
                key.class
            )),
            Err(e) => report.problem(format!("{}: {e}", key.class)),
        }
    }
    for (&i, payload) in payloads {
        let k = reference[i].1;
        if *payload != warm[k] {
            report.problem(format!(
                "{}: cached payload differs from the first response",
                keys[k].class
            ));
        }
    }
    pool
}

/// The seeding edit's payload and a seeded 10 % sample of the reference
/// phase must equal the in-process ones. Returns the seeded synthesis's
/// winning pool.
fn verify_cold(
    keys: &[Keyed],
    warm: &[String],
    reference: &[(Duration, usize)],
    payloads: &BTreeMap<usize, String>,
    report: &mut Report,
) -> u64 {
    let pool = match in_process(&keys[0].request) {
        Ok(p) if same_payload(&p, &warm[0]) => winning_pool(&p),
        Ok(_) => {
            report.problem("seeding edit: daemon payload differs from execute_request_cached");
            0
        }
        Err(e) => {
            report.problem(format!("seeding edit: {e}"));
            0
        }
    };
    for (&i, payload) in payloads {
        let key = &keys[reference[i].1];
        match in_process(&key.request) {
            Ok(p) if same_payload(&p, payload) => {}
            Ok(_) => report.problem(format!(
                "{} request r{i}: daemon payload differs from execute_request_cached",
                key.class
            )),
            Err(e) => report.problem(format!("{} request r{i}: {e}", key.class)),
        }
    }
    report.metric("verified.sampled", payloads.len() as f64, "count");
    pool
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timings_are_zeroed_and_nothing_else() {
        let report =
            "{\"graph\":\"a_us\",\"total_us\":12.345,\"timings\":{\"wig_us\":0.5},\"x\":1}";
        assert_eq!(
            without_timings(report),
            "{\"graph\":\"a_us\",\"total_us\":0,\"timings\":{\"wig_us\":0},\"x\":1}"
        );
    }

    #[test]
    fn hot_streams_are_seed_determined() {
        let keys = hot_keys();
        assert_eq!(keys.len(), 14 * 4 + 2);
        let stream = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut ranking: Vec<usize> = (0..keys.len()).collect();
            shuffle(&mut ranking, &mut rng);
            hot_phase(&mut rng, &ranking, 25.0, Duration::from_secs(4))
        };
        assert_eq!(stream(1), stream(1));
        assert_ne!(stream(1), stream(2));
    }

    #[test]
    fn cold_streams_are_seed_determined_and_never_repeat() {
        let stream = |seed: u64| ColdStream::new(seed).phase(20.0, Duration::from_secs(6));
        let a = stream(1);
        assert_eq!(a, stream(1));
        assert_ne!(a, stream(2));
        let distinct: HashSet<String> = a.iter().map(|(_, k)| k.request.to_json("")).collect();
        assert_eq!(distinct.len(), a.len());
        assert!(a.iter().any(|(_, k)| k.class == "edit"));
    }

    #[test]
    fn edits_chain_from_the_previous_result() {
        let mut stream = ColdStream::new(5);
        let edits: Vec<(String, String)> = std::iter::from_fn(|| Some(stream.next_request()))
            .filter_map(|k| match k.request {
                ServiceRequest::Edit { graph, edits } => Some((graph, edits)),
                _ => None,
            })
            .take(3)
            .collect();
        assert_eq!(edits[0].0, to_text(&seeded_chain()));
        for pair in edits.windows(2) {
            let base = sdf_core::io::parse_graph(&pair[0].0).expect("base parses");
            let script = EditScript::parse(&pair[0].1).expect("script parses");
            let next = apply_edits(&base, &script).expect("applies");
            assert_eq!(pair[1].0, to_text(&next));
        }
    }
}
