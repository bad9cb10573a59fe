//! Command-line front end for the `sdfmem` workspace.
//!
//! Parses SDF graphs from the [`sdf_core::io`] text format and drives the
//! full pipeline: consistency analysis, scheduling, lifetime analysis,
//! allocation and C code generation.  See `sdfmem help` for usage.
//!
//! The argument parsing and command execution live in this library so
//! they can be unit-tested; `main.rs` is a thin wrapper.

#![warn(missing_docs)]

use std::fmt::Write as _;

use sdf_alloc::{allocate, validate_allocation, AllocationOrder, PlacementPolicy};
use sdf_codegen::{emit_c, emit_standalone_c};
use sdf_core::bounds::{bmlb, min_buffer_bound};
use sdf_core::graph::SdfGraph;
use sdf_core::repetitions::RepetitionsVector;
use sdf_core::SdfError;
use sdf_lifetime::clique::{mcw_optimistic, mcw_pessimistic};
use sdf_lifetime::tree::ScheduleTree;
use sdf_lifetime::wig::{ConflictGraph, IntersectionGraph};
use sdf_regress::ReportFormat as DiffFormat;
use sdf_sched::{apgan, dppo, rpmc, sdppo, LoopVariant};
use sdf_service::{
    execute_request, Client, ExplainReport, MemoryModel, OrderMethod, ResponsePayload, Server,
    ServerConfig, ServiceRequest, ServiceResponse,
};
use sdfmem::engine::AnalysisBuilder;
use sdfmem::sentinel::PERTURB_ENV;

/// Which topological-sort heuristic to use.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Method {
    /// APGAN (bottom-up clustering).
    #[default]
    Apgan,
    /// RPMC (top-down min-cut partitioning).
    Rpmc,
}

impl Method {
    fn service(self) -> OrderMethod {
        match self {
            Method::Apgan => OrderMethod::Apgan,
            Method::Rpmc => OrderMethod::Rpmc,
        }
    }
}

/// Which buffer model to target.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Model {
    /// One shared pool, lifetime-packed (the paper's contribution).
    #[default]
    Shared,
    /// One array per edge (the DPPO baseline).
    NonShared,
}

impl Model {
    fn service(self) -> MemoryModel {
        match self {
            Model::Shared => MemoryModel::Shared,
            Model::NonShared => MemoryModel::NonShared,
        }
    }
}

/// Which operation `sdfmem submit` sends to the daemon.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SubmitKind {
    /// Candidate-lattice sweep (the default).
    #[default]
    Analyze,
    /// Lower to an executable plan.
    Plan,
    /// Lower and run the interpreter oracle.
    Simulate,
    /// Build the allocation-provenance report.
    Explain,
    /// Synthesise a multi-mode scenario graph into one shared pool.
    Modes,
    /// Capture a regression-sentinel baseline profile.
    Baseline,
    /// Fetch the daemon's `service.*` counters, gauges and histogram
    /// summaries.
    Stats,
    /// Fetch a Prometheus-style text exposition of the daemon's
    /// instruments.
    Metrics,
    /// Drain the daemon's flight recorder of per-request summaries.
    Events,
    /// Stop the daemon (responds with final stats).
    Shutdown,
}

/// Output format of `sdfmem analyze`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ReportFormat {
    /// Human-readable scoreboard.
    #[default]
    Text,
    /// Machine-readable [`sdfmem::engine::EngineReport::to_json`] object.
    Json,
}

/// A parsed CLI invocation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Command {
    /// `sdfmem info <file>`.
    Info {
        /// Graph file path.
        file: String,
    },
    /// `sdfmem analyze <file> [--report FMT] [--serial] [--full]
    /// [--trace OUT]` — sweep the engine's candidate lattice and report
    /// the scoreboard.
    Analyze {
        /// Graph file path.
        file: String,
        /// Output format.
        report: ReportFormat,
        /// Evaluate candidates serially instead of in parallel.
        serial: bool,
        /// Sweep every loop-optimizer variant, not just SDPPO.
        full: bool,
        /// Write a trace of the run to this path (chrome://tracing JSON,
        /// or JSONL when the path ends in `.jsonl`).
        trace: Option<String>,
    },
    /// `sdfmem profile <file> [--full]` — run the engine serially under a
    /// recorder and print the span tree and counter table.
    Profile {
        /// Graph file path.
        file: String,
        /// Sweep every loop-optimizer variant, not just SDPPO.
        full: bool,
    },
    /// `sdfmem baseline <file> [--out PATH] [--repeats N] [--full]` —
    /// capture a regression-sentinel baseline profile.
    Baseline {
        /// Graph file path.
        file: String,
        /// Where to write the profile JSON (stdout when omitted).
        out: Option<String>,
        /// Timing repeats (work counters must agree across all of them).
        repeats: u32,
        /// Sweep every loop-optimizer variant, not just SDPPO.
        full: bool,
    },
    /// `sdfmem compare <baseline> <candidate> [--gate] [--format F]
    /// [--allow NAMES]` — diff two baseline profiles; exits nonzero on a
    /// gated regression.
    Compare {
        /// Baseline profile path.
        baseline: String,
        /// Candidate profile path.
        candidate: String,
        /// Also gate on timing-band violations (off by default: wall
        /// clocks are not comparable across machines).
        gate: bool,
        /// Report format.
        format: DiffFormat,
        /// Comma-separated names exempt from the exact-match gate
        /// (trailing `*` matches a prefix).
        allow: Vec<String>,
    },
    /// `sdfmem bounds <file>`.
    Bounds {
        /// Graph file path.
        file: String,
    },
    /// `sdfmem schedule <file> [--method M] [--model M]`.
    Schedule {
        /// Graph file path.
        file: String,
        /// Topological-sort heuristic.
        method: Method,
        /// Buffer model.
        model: Model,
    },
    /// `sdfmem allocate <file> [--method M]`.
    Allocate {
        /// Graph file path.
        file: String,
        /// Topological-sort heuristic.
        method: Method,
    },
    /// `sdfmem codegen <file> [--method M] [--model M] [--standalone]`.
    Codegen {
        /// Graph file path.
        file: String,
        /// Topological-sort heuristic.
        method: Method,
        /// Buffer model.
        model: Model,
        /// Emit stub actor definitions plus a `main`, producing a
        /// self-contained program (the CI smoke-test form).
        standalone: bool,
    },
    /// `sdfmem simulate <file> [--method M] [--model M] [--report FMT]`
    /// — lower the plan the matching `codegen` invocation would emit and
    /// execute it under the interpreter oracle; exit 1 on a violation.
    Simulate {
        /// Graph file path.
        file: String,
        /// Topological-sort heuristic.
        method: Method,
        /// Buffer model.
        model: Model,
        /// Output format (the JSON form embeds the executable plan).
        report: ReportFormat,
    },
    /// `sdfmem explain <file> [--buffer NAME] [--report FMT]
    /// [--trace OUT]` — allocation provenance: per-buffer placement
    /// stories (probes, rejected gaps, fragmentation attribution) and
    /// the pool occupancy timeline.
    Explain {
        /// Graph file path.
        file: String,
        /// Restrict the text story to one buffer (`SRC->SNK` actor
        /// names).
        buffer: Option<String>,
        /// Output format (`json` prints the `allocation_explain`
        /// document).
        report: ReportFormat,
        /// Write a chrome://tracing JSON trace with pool-occupancy
        /// counter tracks to this path.
        trace: Option<String>,
    },
    /// `sdfmem modes <file> [--report FMT]` — synthesise a multi-mode
    /// scenario graph (`.sdfm`) into one shared pool across all modes:
    /// per-mode plans on the candidate lattice, a merged cross-mode
    /// allocation whose persistent buffers keep their offsets across
    /// transitions, and the transition oracle's verdict; exit 1 when
    /// the oracle finds a violation.
    Modes {
        /// Mode-graph file path.
        file: String,
        /// Output format (`json` prints the `mode_report` document).
        report: ReportFormat,
    },
    /// `sdfmem gantt <file> [--method M]` — lifetime chart.
    Gantt {
        /// Graph file path.
        file: String,
        /// Topological-sort heuristic.
        method: Method,
    },
    /// `sdfmem dot <file>` — Graphviz export.
    Dot {
        /// Graph file path.
        file: String,
    },
    /// `sdfmem serve <addr> [--workers N] [--cache-cap N]
    /// [--queue-cap N] [--port-file PATH] [--trace-dir DIR]` — run the
    /// `sdfmemd` daemon until a `shutdown` request arrives.
    Serve {
        /// Address to bind, e.g. `127.0.0.1:7654` (`:0` picks an
        /// ephemeral port, written to `--port-file`).
        addr: String,
        /// Worker threads draining the job queue.
        workers: usize,
        /// Result-cache capacity, in entries.
        cache_cap: usize,
        /// Pending-job limit; submissions beyond it are rejected.
        queue_cap: usize,
        /// Write the bound address here once listening (how scripts
        /// discover an ephemeral port).
        port_file: Option<String>,
        /// Write one chrome://tracing JSON file per completed job here.
        trace_dir: Option<String>,
    },
    /// `sdfmem submit <addr> [--kind K] [--file G] ...` — submit one
    /// request to a running daemon and print the response envelope.
    Submit {
        /// Daemon address (`host:port`).
        addr: String,
        /// Which operation to submit.
        kind: SubmitKind,
        /// Graph file (required for graph-backed kinds).
        file: Option<String>,
        /// Topological-sort heuristic (plan/simulate).
        method: Method,
        /// Buffer model (plan/simulate).
        model: Model,
        /// Analyze: evaluate candidates serially.
        serial: bool,
        /// Analyze/baseline: sweep every loop-optimizer variant.
        full: bool,
        /// Baseline: timing repeats.
        repeats: u32,
        /// Connect-retry budget in milliseconds (0 = single attempt).
        timeout_ms: u64,
    },
    /// `sdfmem edit <addr> --file <graph> --edits <script>
    /// [--timeout-ms N]` — submit an incremental re-synthesis request:
    /// a base graph plus an edit script. A daemon holding a live
    /// session for the base runs the engine with that session's warm
    /// chain-DP memo store; otherwise it runs cold and seeds a session
    /// for the next edit.
    Edit {
        /// Daemon address (`host:port`).
        addr: String,
        /// Base graph file.
        file: Option<String>,
        /// Edit-script file (`set-rate`/`set-delay`/`add-edge`/
        /// `remove-edge` lines).
        edits: Option<String>,
        /// Connect-retry budget in milliseconds (0 = single attempt).
        timeout_ms: u64,
    },
    /// `sdfmem top <addr> [--interval-ms N] [--count N]` — poll a
    /// running daemon's `stats` op and render a live table: ops/sec,
    /// cache hit rate, queue depth, incremental-edit activity, and
    /// p50/p95/p99 latency per op.
    Top {
        /// Daemon address (`host:port`).
        addr: String,
        /// Milliseconds between polls.
        interval_ms: u64,
        /// Frames to render before exiting (`0` = until the daemon
        /// goes away).
        count: u64,
        /// Connect-retry budget in milliseconds (0 = single attempt).
        timeout_ms: u64,
    },
    /// `sdfmem help`.
    Help,
}

/// Usage text shown by `help` and on argument errors.
pub const USAGE: &str = "\
sdfmem — shared-memory SDF scheduling (Murthy & Bhattacharyya, DATE 2000)

USAGE:
    sdfmem <COMMAND> <graph-file> [OPTIONS]

COMMANDS:
    info      graph statistics and the repetitions vector
    bounds    buffer-memory lower bounds (BMLB, all-schedules)
    analyze   sweep the candidate lattice, report the winner + scoreboard
    profile   run the engine under a recorder, print span tree + counters
    baseline  capture a regression-sentinel baseline profile (JSON)
    compare   diff two baseline profiles; exit 1 on a gated regression
    schedule  construct a single appearance schedule
    allocate  pack all buffers into one shared pool
    codegen   emit the C implementation
    simulate  execute the plan under the interpreter oracle; exit 1 on a
              violation (token leak, poisoned read, live-buffer overlap)
    explain   allocation provenance: per-buffer placement stories (probes,
              rejected gaps, fragmentation attribution) and the pool
              occupancy timeline
    modes     synthesise a multi-mode scenario graph (.sdfm) into one
              shared pool across all modes: persistent buffers keep one
              offset everywhere, mode-local buffers of different modes
              overlap; exit 1 on an unclean transition oracle
    gantt     ASCII lifetime chart of all buffers
    dot       Graphviz export of the graph
    serve     run the sdfmemd daemon: line-delimited JSON service requests
              over TCP, behind a content-addressed result cache
              (takes <addr> instead of a graph file)
    submit    submit one request to a running daemon, print the response
              envelope (takes <addr>; graph-backed kinds need --file)
    edit      submit an incremental re-synthesis request: a base graph
              (--file) plus an edit script (--edits); a daemon session
              holding the base rides the delta path
    top       poll a running daemon and render a live ops/latency table
              (takes <addr>)
    help      show this text

OPTIONS:
    --method apgan|rpmc      topological-sort heuristic (default apgan)
    --model  shared|nonshared  buffer model (default shared)
    --report text|json       analyze/simulate/explain/modes output format
                             (default text)
    --standalone             codegen: emit stub actors + main (runnable program)
    --serial                 analyze: evaluate candidates serially
    --full                   analyze/profile/baseline: sweep every loop-optimizer variant
    --trace <out>            analyze: write a chrome://tracing JSON trace
                             (JSONL when <out> ends in .jsonl);
                             explain: same, plus pool-occupancy counter
                             tracks
    --buffer <name>          explain: restrict the story to one buffer
                             (SRC->SNK actor names)
    --out <path>             baseline: write the profile here (default stdout)
    --repeats <n>            baseline: timing repeats (default 3)
    --format text|json|md    compare: report format (default text)
    --gate                   compare: gate on timing-band violations too
    --allow <names>          compare: comma-separated gate exemptions
                             (trailing * matches a prefix)
    --workers <n>            serve: worker threads (default 2)
    --cache-cap <n>          serve: result-cache entries (default 256)
    --queue-cap <n>          serve: pending-job limit (default 64)
    --port-file <path>       serve: write the bound address here once
                             listening
    --trace-dir <dir>        serve: write one chrome://tracing JSON file
                             per completed job into this directory
    --kind <op>              submit: analyze|plan|simulate|explain|modes|
                             baseline|stats|metrics|events|shutdown
                             (default analyze)
    --file <graph>           submit/edit: graph file
    --edits <script>         edit: edit-script file; lines are
                             set-rate SRC SNK PROD CONS, set-delay SRC SNK D,
                             add-edge SRC SNK PROD CONS [delay D],
                             remove-edge SRC SNK, # comments
    --timeout-ms <n>         submit/edit/top: keep retrying the connection
                             with capped backoff for this long before
                             giving up (default 0 = single attempt)
    --interval-ms <n>        top: milliseconds between polls (default 1000)
    --count <n>              top: frames to render before exiting
                             (default 0 = until the daemon goes away)

EXIT CODES:
    0  success
    1  domain failure: gated regression (compare), oracle violation
       (simulate), error/rejected/unclean response (submit)
    2  usage or I/O error: bad commands or flags, unreadable files,
       bind/connect failures

GRAPH FILE FORMAT:
    graph NAME
    actor NAME
    edge SRC SNK PROD CONS [delay D]

MODE GRAPH FILE FORMAT (modes):
    modegraph NAME
    persistent SRC SNK
    mode NAME
    actor NAME
    edge SRC SNK PROD CONS [delay D]
    mode NAME
    ...
";

/// Parses command-line arguments (without the program name).
///
/// # Errors
///
/// Returns a human-readable message for unknown commands, missing files or
/// bad option values.
pub fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut it = args.iter();
    let cmd = it.next().map(String::as_str).unwrap_or("help");
    if cmd == "help" || cmd == "--help" || cmd == "-h" {
        return Ok(Command::Help);
    }
    // Each command accepts exactly the options its contract documents;
    // an option another command owns is an error here, not a silent
    // no-op.
    let allowed: &[&str] = match cmd {
        "info" | "bounds" | "dot" => &[],
        "analyze" => &["--report", "--serial", "--full", "--trace"],
        "profile" => &["--full"],
        "baseline" => &["--out", "--repeats", "--full"],
        "compare" => &["--gate", "--format", "--allow"],
        "schedule" => &["--method", "--model"],
        "allocate" | "gantt" => &["--method"],
        "codegen" => &["--method", "--model", "--standalone"],
        "simulate" => &["--method", "--model", "--report"],
        "explain" => &["--buffer", "--report", "--trace"],
        "modes" => &["--report"],
        "serve" => &[
            "--workers",
            "--cache-cap",
            "--queue-cap",
            "--port-file",
            "--trace-dir",
        ],
        "submit" => &[
            "--kind",
            "--file",
            "--method",
            "--model",
            "--serial",
            "--full",
            "--repeats",
            "--timeout-ms",
        ],
        "edit" => &["--file", "--edits", "--timeout-ms"],
        "top" => &["--interval-ms", "--count", "--timeout-ms"],
        other => return Err(format!("unknown command `{other}`")),
    };
    let file = it.next().cloned().ok_or_else(|| match cmd {
        "serve" | "submit" | "edit" | "top" => format!("missing <addr> for `{cmd}`"),
        _ => format!("missing graph file for `{cmd}`"),
    })?;
    // `compare` is the one two-positional command: baseline, candidate.
    let second = if cmd == "compare" {
        Some(
            it.next()
                .cloned()
                .ok_or("`compare` needs two profiles: sdfmem compare <baseline> <candidate>")?,
        )
    } else {
        None
    };
    let mut method = Method::default();
    let mut model = Model::default();
    let mut report = ReportFormat::default();
    let mut serial = false;
    let mut full = false;
    let mut trace = None;
    let mut buffer = None;
    let mut out = None;
    let mut repeats = 3u32;
    let mut gate = false;
    let mut standalone = false;
    let mut format = DiffFormat::default();
    let mut allow: Vec<String> = Vec::new();
    let mut workers = 2usize;
    let mut cache_cap = 256usize;
    let mut queue_cap = 64usize;
    let mut port_file = None;
    let mut trace_dir = None;
    let mut kind = SubmitKind::default();
    let mut submit_file = None;
    let mut edits_file = None;
    let mut interval_ms = 1000u64;
    let mut count = 0u64;
    let mut timeout_ms = 0u64;
    let parse_count = |flag: &str, value: Option<&String>| -> Result<usize, String> {
        match value {
            Some(n) => n
                .parse::<usize>()
                .map_err(|_| format!("bad {flag} value: `{n}` is not a number")),
            None => Err(format!("missing {flag} count")),
        }
    };
    while let Some(opt) = it.next() {
        if !allowed.contains(&opt.as_str()) {
            return Err(if KNOWN_OPTIONS.contains(&opt.as_str()) {
                format!("option `{opt}` does not apply to `{cmd}`")
            } else {
                format!("unknown option `{opt}`")
            });
        }
        match opt.as_str() {
            "--method" => {
                method = match it.next().map(String::as_str) {
                    Some("apgan") => Method::Apgan,
                    Some("rpmc") => Method::Rpmc,
                    other => return Err(format!("bad --method value: {other:?}")),
                }
            }
            "--model" => {
                model = match it.next().map(String::as_str) {
                    Some("shared") => Model::Shared,
                    Some("nonshared") => Model::NonShared,
                    other => return Err(format!("bad --model value: {other:?}")),
                }
            }
            "--report" => {
                report = match it.next().map(String::as_str) {
                    Some("text") => ReportFormat::Text,
                    Some("json") => ReportFormat::Json,
                    other => return Err(format!("bad --report value: {other:?}")),
                }
            }
            "--serial" => serial = true,
            "--full" => full = true,
            "--trace" => {
                trace = match it.next() {
                    Some(path) => Some(path.clone()),
                    None => return Err("missing --trace output path".to_string()),
                }
            }
            "--buffer" => {
                buffer = match it.next() {
                    Some(name) => Some(name.clone()),
                    None => return Err("missing --buffer name".to_string()),
                }
            }
            "--out" => {
                out = match it.next() {
                    Some(path) => Some(path.clone()),
                    None => return Err("missing --out output path".to_string()),
                }
            }
            "--repeats" => {
                repeats = match it.next() {
                    Some(n) => n
                        .parse::<u32>()
                        .map_err(|_| format!("bad --repeats value: `{n}` is not a number"))?,
                    None => return Err("missing --repeats count".to_string()),
                };
                if repeats == 0 {
                    return Err("bad --repeats value: must be at least 1".to_string());
                }
            }
            "--gate" => gate = true,
            "--standalone" => standalone = true,
            "--format" => {
                format = match it.next().map(String::as_str) {
                    Some("text") => DiffFormat::Text,
                    Some("json") => DiffFormat::Json,
                    Some("md") => DiffFormat::Markdown,
                    other => return Err(format!("bad --format value: {other:?}")),
                }
            }
            "--allow" => match it.next() {
                Some(names) => allow.extend(
                    names
                        .split(',')
                        .filter(|n| !n.is_empty())
                        .map(str::to_string),
                ),
                None => return Err("missing --allow names".to_string()),
            },
            "--workers" => workers = parse_count("--workers", it.next())?,
            "--cache-cap" => cache_cap = parse_count("--cache-cap", it.next())?,
            "--queue-cap" => queue_cap = parse_count("--queue-cap", it.next())?,
            "--port-file" => {
                port_file = match it.next() {
                    Some(path) => Some(path.clone()),
                    None => return Err("missing --port-file path".to_string()),
                }
            }
            "--trace-dir" => {
                trace_dir = match it.next() {
                    Some(path) => Some(path.clone()),
                    None => return Err("missing --trace-dir directory".to_string()),
                }
            }
            "--kind" => {
                kind = match it.next().map(String::as_str) {
                    Some("analyze") => SubmitKind::Analyze,
                    Some("plan") => SubmitKind::Plan,
                    Some("simulate") => SubmitKind::Simulate,
                    Some("explain") => SubmitKind::Explain,
                    Some("modes") => SubmitKind::Modes,
                    Some("baseline") => SubmitKind::Baseline,
                    Some("stats") => SubmitKind::Stats,
                    Some("metrics") => SubmitKind::Metrics,
                    Some("events") => SubmitKind::Events,
                    Some("shutdown") => SubmitKind::Shutdown,
                    other => return Err(format!("bad --kind value: {other:?}")),
                }
            }
            "--interval-ms" => {
                interval_ms = match it.next() {
                    Some(n) => n
                        .parse::<u64>()
                        .map_err(|_| format!("bad --interval-ms value: `{n}` is not a number"))?,
                    None => return Err("missing --interval-ms count".to_string()),
                }
            }
            "--count" => {
                count = match it.next() {
                    Some(n) => n
                        .parse::<u64>()
                        .map_err(|_| format!("bad --count value: `{n}` is not a number"))?,
                    None => return Err("missing --count count".to_string()),
                }
            }
            "--file" => {
                submit_file = match it.next() {
                    Some(path) => Some(path.clone()),
                    None => return Err("missing --file graph path".to_string()),
                }
            }
            "--edits" => {
                edits_file = match it.next() {
                    Some(path) => Some(path.clone()),
                    None => return Err("missing --edits script path".to_string()),
                }
            }
            "--timeout-ms" => {
                timeout_ms = match it.next() {
                    Some(n) => n
                        .parse::<u64>()
                        .map_err(|_| format!("bad --timeout-ms value: `{n}` is not a number"))?,
                    None => return Err("missing --timeout-ms count".to_string()),
                }
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    match cmd {
        "info" => Ok(Command::Info { file }),
        "bounds" => Ok(Command::Bounds { file }),
        "analyze" => Ok(Command::Analyze {
            file,
            report,
            serial,
            full,
            trace,
        }),
        "profile" => Ok(Command::Profile { file, full }),
        "baseline" => Ok(Command::Baseline {
            file,
            out,
            repeats,
            full,
        }),
        "compare" => Ok(Command::Compare {
            baseline: file,
            candidate: second.expect("parsed above"),
            gate,
            format,
            allow,
        }),
        "schedule" => Ok(Command::Schedule {
            file,
            method,
            model,
        }),
        "allocate" => Ok(Command::Allocate { file, method }),
        "codegen" => Ok(Command::Codegen {
            file,
            method,
            model,
            standalone,
        }),
        "simulate" => Ok(Command::Simulate {
            file,
            method,
            model,
            report,
        }),
        "explain" => Ok(Command::Explain {
            file,
            buffer,
            report,
            trace,
        }),
        "modes" => Ok(Command::Modes { file, report }),
        "gantt" => Ok(Command::Gantt { file, method }),
        "dot" => Ok(Command::Dot { file }),
        "serve" => Ok(Command::Serve {
            addr: file,
            workers,
            cache_cap,
            queue_cap,
            port_file,
            trace_dir,
        }),
        "submit" => Ok(Command::Submit {
            addr: file,
            kind,
            file: submit_file,
            method,
            model,
            serial,
            full,
            repeats,
            timeout_ms,
        }),
        "edit" => Ok(Command::Edit {
            addr: file,
            file: submit_file,
            edits: edits_file,
            timeout_ms,
        }),
        "top" => Ok(Command::Top {
            addr: file,
            interval_ms,
            count,
            timeout_ms,
        }),
        other => Err(format!("unknown command `{other}`")),
    }
}

/// Every option any command accepts, for the does-not-apply/unknown
/// distinction in error messages.
const KNOWN_OPTIONS: &[&str] = &[
    "--method",
    "--model",
    "--report",
    "--serial",
    "--full",
    "--trace",
    "--buffer",
    "--out",
    "--repeats",
    "--gate",
    "--standalone",
    "--format",
    "--allow",
    "--workers",
    "--cache-cap",
    "--queue-cap",
    "--port-file",
    "--trace-dir",
    "--kind",
    "--file",
    "--edits",
    "--interval-ms",
    "--count",
    "--timeout-ms",
];

fn load(file: &str) -> Result<SdfGraph, String> {
    let text = std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
    sdf_core::io::parse_graph(&text).map_err(|e| format!("{file}: {e}"))
}

fn read_input(file: &str) -> Result<String, String> {
    std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))
}

/// Unwraps a service response into its payload, or maps the typed
/// error back to the CLI's `{file}: {message}` convention using
/// `inputs` (pairs of request-member name and the file it came from).
fn into_payload(
    response: ServiceResponse,
    inputs: &[(&str, &str)],
) -> Result<ResponsePayload, String> {
    match response {
        ServiceResponse::Ok(payload) => Ok(payload),
        ServiceResponse::Rejected { message } => Err(message),
        ServiceResponse::Err(error) => {
            let file = error
                .input
                .and_then(|name| inputs.iter().find(|(n, _)| *n == name))
                .map(|(_, file)| *file);
            Err(match file {
                Some(file) => format!("{file}: {}", error.message),
                None => error.message,
            })
        }
    }
}

fn order_for(
    graph: &SdfGraph,
    q: &RepetitionsVector,
    method: Method,
) -> Result<Vec<sdf_core::ActorId>, SdfError> {
    match method {
        Method::Apgan => apgan(graph, q),
        Method::Rpmc => rpmc(graph, q),
    }
}

/// Executes a command, returning its stdout text.
///
/// # Errors
///
/// Returns a human-readable message on any I/O, parse or analysis error.
pub fn run(command: &Command) -> Result<String, String> {
    execute(command).map(|(out, _)| out)
}

/// Executes a command, returning its stdout text and the process exit
/// code: 0 on success, 1 when `compare` found a gated regression.
///
/// # Errors
///
/// Returns a human-readable message on any I/O, parse or analysis error
/// (`main` exits 2 for these).
pub fn execute(command: &Command) -> Result<(String, i32), String> {
    let mut out = String::new();
    let mut code = 0;
    match command {
        Command::Help => out.push_str(USAGE),
        Command::Info { file } => {
            let g = load(file)?;
            let _ = write!(out, "{g}");
            match RepetitionsVector::compute(&g) {
                Ok(q) => {
                    let _ = writeln!(out, "consistent; period of {} firings", q.total_firings());
                    for a in g.actors() {
                        let _ = writeln!(out, "  q({}) = {}", g.actor_name(a), q.get(a));
                    }
                }
                Err(e) => {
                    let _ = writeln!(out, "INCONSISTENT: {e}");
                }
            }
        }
        Command::Analyze {
            file,
            report,
            serial,
            full,
            trace,
        } => {
            let request = ServiceRequest::Analyze {
                graph: read_input(file)?,
                serial: *serial,
                full: *full,
            };
            let response = match trace {
                None => execute_request(&request),
                Some(path) => {
                    let recorder = std::sync::Arc::new(sdf_trace::Recorder::new());
                    let response = sdf_trace::scoped(&recorder, || execute_request(&request));
                    if matches!(response, ServiceResponse::Ok(_)) {
                        let snapshot = recorder.snapshot();
                        let text = if path.ends_with(".jsonl") {
                            snapshot.to_jsonl()
                        } else {
                            snapshot.to_chrome_trace_json()
                        };
                        std::fs::write(path, text)
                            .map_err(|e| format!("cannot write {path}: {e}"))?;
                    }
                    response
                }
            };
            let ResponsePayload::Analyze {
                graph: g,
                synthesis,
            } = into_payload(response, &[("graph", file)])?
            else {
                unreachable!("analyze request produced a foreign payload");
            };
            match report {
                ReportFormat::Json => {
                    let _ = writeln!(out, "{}", synthesis.report.to_json());
                }
                ReportFormat::Text => {
                    let an = &synthesis.analysis;
                    let _ = writeln!(
                        out,
                        "schedule: {}",
                        an.schedule.to_looped_schedule().display(&g)
                    );
                    let _ = writeln!(
                        out,
                        "shared pool: {} words ({}% saved over non-shared {})",
                        an.shared_total(),
                        an.saving_percent().round(),
                        an.nonshared_bufmem
                    );
                    let _ = writeln!(out, "{}", synthesis.report);
                }
            }
        }
        Command::Profile { file, full } => {
            let g = load(file)?;
            // Serial evaluation keeps every candidate span nested under the
            // run span; rayon workers would start fresh span stacks.
            let mut builder = AnalysisBuilder::new().parallel(false);
            if *full {
                builder = builder.loop_opts(LoopVariant::ALL);
            }
            let recorder = std::sync::Arc::new(sdf_trace::Recorder::new());
            let synthesis =
                sdf_trace::scoped(&recorder, || builder.run_full(&g)).map_err(|e| e.to_string())?;
            let snapshot = recorder.snapshot();
            let an = &synthesis.analysis;
            let _ = writeln!(
                out,
                "graph {}: shared pool {} words (non-shared {})\n",
                g.name(),
                an.shared_total(),
                an.nonshared_bufmem
            );
            out.push_str(&snapshot.profile_tree());
            out.push('\n');
            out.push_str(&snapshot.counter_table());
        }
        Command::Baseline {
            file,
            out: out_path,
            repeats,
            full,
        } => {
            let request = ServiceRequest::Baseline {
                graph: read_input(file)?,
                repeats: *repeats,
                full: *full,
                perturb: std::env::var(PERTURB_ENV).ok(),
            };
            let ResponsePayload::Baseline { profile } =
                into_payload(execute_request(&request), &[("graph", file)])?
            else {
                unreachable!("baseline request produced a foreign payload");
            };
            let json = profile.to_json();
            match out_path {
                Some(path) => {
                    std::fs::write(path, &json).map_err(|e| format!("cannot write {path}: {e}"))?;
                    let _ = writeln!(
                        out,
                        "wrote baseline profile for {} to {path} ({} counters, {} repeats)",
                        profile.graph,
                        profile.counters.len(),
                        profile.repeats
                    );
                }
                None => out.push_str(&json),
            }
        }
        Command::Compare {
            baseline,
            candidate,
            gate,
            format,
            allow,
        } => {
            let request = ServiceRequest::Compare {
                baseline: read_input(baseline)?,
                candidate: read_input(candidate)?,
                gate: *gate,
                allow: allow.clone(),
            };
            let ResponsePayload::Compare { report } = into_payload(
                execute_request(&request),
                &[("baseline", baseline), ("candidate", candidate)],
            )?
            else {
                unreachable!("compare request produced a foreign payload");
            };
            out.push_str(&report.render(*format));
            if !report.is_clean() {
                code = 1;
            }
        }
        Command::Bounds { file } => {
            let g = load(file)?;
            RepetitionsVector::compute(&g).map_err(|e| e.to_string())?;
            let _ = writeln!(out, "BMLB (over all SASs):           {}", bmlb(&g));
            let _ = writeln!(
                out,
                "bound over all valid schedules: {}",
                min_buffer_bound(&g)
            );
        }
        Command::Schedule {
            file,
            method,
            model,
        } => {
            let g = load(file)?;
            let q = RepetitionsVector::compute(&g).map_err(|e| e.to_string())?;
            let order = order_for(&g, &q, *method).map_err(|e| e.to_string())?;
            match model {
                Model::NonShared => {
                    let r = dppo(&g, &q, &order).map_err(|e| e.to_string())?;
                    let _ = writeln!(out, "schedule: {}", r.tree.to_looped_schedule().display(&g));
                    let _ = writeln!(out, "bufmem (non-shared): {}", r.bufmem);
                }
                Model::Shared => {
                    let r = sdppo(&g, &q, &order).map_err(|e| e.to_string())?;
                    let _ = writeln!(out, "schedule: {}", r.tree.to_looped_schedule().display(&g));
                    let _ = writeln!(out, "shared cost estimate: {}", r.shared_cost);
                }
            }
        }
        Command::Allocate { file, method } => {
            let g = load(file)?;
            let q = RepetitionsVector::compute(&g).map_err(|e| e.to_string())?;
            let order = order_for(&g, &q, *method).map_err(|e| e.to_string())?;
            let shared = sdppo(&g, &q, &order).map_err(|e| e.to_string())?;
            let tree = ScheduleTree::build(&g, &q, &shared.tree).map_err(|e| e.to_string())?;
            let wig = IntersectionGraph::build(&g, &q, &tree);
            let alloc = allocate(
                &wig,
                AllocationOrder::DurationDescending,
                PlacementPolicy::FirstFit,
            );
            validate_allocation(&wig, &alloc).map_err(|e| e.to_string())?;
            let _ = writeln!(
                out,
                "schedule: {}",
                shared.tree.to_looped_schedule().display(&g)
            );
            let stats = sdf_alloc::allocation_stats(&wig, &alloc);
            let _ = writeln!(
                out,
                "pool: {} words (non-shared would need {}; mco {}, mcp {})",
                alloc.total(),
                wig.total_size(),
                mcw_optimistic(&wig),
                mcw_pessimistic(&wig)
            );
            let _ = writeln!(
                out,
                "packing factor {:.2}x; {} of {} buffers overlaid",
                stats.packing_factor, stats.overlaid_buffers, stats.buffer_count
            );
            for (i, buf) in wig.buffers().iter().enumerate() {
                let e = g.edge(buf.edge);
                let _ = writeln!(
                    out,
                    "  {:>4}..{:<4}  {} -> {} ({} words)",
                    alloc.offset(i),
                    alloc.offset(i) + wig.size(i),
                    g.actor_name(e.src),
                    g.actor_name(e.snk),
                    wig.size(i)
                );
            }
        }
        Command::Dot { file } => {
            let g = load(file)?;
            out.push_str(&sdf_core::io::to_dot(&g));
        }
        Command::Gantt { file, method } => {
            let g = load(file)?;
            let q = RepetitionsVector::compute(&g).map_err(|e| e.to_string())?;
            let order = order_for(&g, &q, *method).map_err(|e| e.to_string())?;
            let shared = sdppo(&g, &q, &order).map_err(|e| e.to_string())?;
            let tree = ScheduleTree::build(&g, &q, &shared.tree).map_err(|e| e.to_string())?;
            let wig = IntersectionGraph::build(&g, &q, &tree);
            let _ = writeln!(
                out,
                "schedule: {}\n",
                shared.tree.to_looped_schedule().display(&g)
            );
            out.push_str(&sdf_lifetime::gantt::render_gantt(&g, &tree, &wig, 96));
        }
        Command::Codegen {
            file,
            method,
            model,
            standalone,
        } => {
            let request = ServiceRequest::Plan {
                graph: read_input(file)?,
                method: method.service(),
                model: model.service(),
            };
            let ResponsePayload::Plan { plan } =
                into_payload(execute_request(&request), &[("graph", file)])?
            else {
                unreachable!("plan request produced a foreign payload");
            };
            out.push_str(&if *standalone {
                emit_standalone_c(&plan)
            } else {
                emit_c(&plan)
            });
        }
        Command::Simulate {
            file,
            method,
            model,
            report,
        } => {
            let request = ServiceRequest::Simulate {
                graph: read_input(file)?,
                method: method.service(),
                model: model.service(),
            };
            let payload = into_payload(execute_request(&request), &[("graph", file)])?;
            let ResponsePayload::Simulate { plan, exec } = &payload else {
                unreachable!("simulate request produced a foreign payload");
            };
            if exec.is_err() {
                code = 1;
            }
            match report {
                ReportFormat::Text => match exec {
                    Ok(r) => {
                        let _ = writeln!(
                            out,
                            "graph {}: {} model simulated clean",
                            plan.graph,
                            plan.model.as_str()
                        );
                        let _ = writeln!(out, "  firings:   {}", r.firings);
                        let _ = writeln!(out, "  pool:      {} words", r.pool_words);
                        let _ = writeln!(
                            out,
                            "  peak live: {} words ({} bytes)",
                            r.peak_live_words, r.peak_live_bytes
                        );
                    }
                    Err(e) => {
                        let _ = writeln!(
                            out,
                            "graph {}: {} model ORACLE VIOLATION",
                            plan.graph,
                            plan.model.as_str()
                        );
                        let _ = writeln!(out, "  {e}");
                    }
                },
                ReportFormat::Json => {
                    let _ = writeln!(out, "{}", payload.to_json());
                }
            }
        }
        Command::Serve {
            addr,
            workers,
            cache_cap,
            queue_cap,
            port_file,
            trace_dir,
        } => {
            let config = ServerConfig {
                workers: *workers,
                cache_capacity: *cache_cap,
                queue_capacity: *queue_cap,
                trace_dir: trace_dir.as_ref().map(std::path::PathBuf::from),
                ..ServerConfig::default()
            };
            let server = Server::bind(addr, config.clone())?;
            let local = server.local_addr();
            if let Some(path) = port_file {
                std::fs::write(path, format!("{local}\n"))
                    .map_err(|e| format!("cannot write {path}: {e}"))?;
            }
            eprintln!(
                "sdfmemd listening on {local} ({} workers, cache {}, queue {}{})",
                config.workers,
                config.cache_capacity,
                config.queue_capacity,
                match &config.trace_dir {
                    Some(dir) => format!(", traces to {}", dir.display()),
                    None => String::new(),
                }
            );
            server.wait();
            let _ = writeln!(out, "sdfmemd on {local} shut down cleanly");
        }
        Command::Submit {
            addr,
            kind,
            file,
            method,
            model,
            serial,
            full,
            repeats,
            timeout_ms,
        } => {
            let graph = |file: &Option<String>| -> Result<String, String> {
                let path = file
                    .as_deref()
                    .ok_or("this --kind needs a graph: sdfmem submit <addr> --file <graph>")?;
                read_input(path)
            };
            let request = match kind {
                SubmitKind::Analyze => ServiceRequest::Analyze {
                    graph: graph(file)?,
                    serial: *serial,
                    full: *full,
                },
                SubmitKind::Plan => ServiceRequest::Plan {
                    graph: graph(file)?,
                    method: method.service(),
                    model: model.service(),
                },
                SubmitKind::Simulate => ServiceRequest::Simulate {
                    graph: graph(file)?,
                    method: method.service(),
                    model: model.service(),
                },
                SubmitKind::Explain => ServiceRequest::Explain {
                    graph: graph(file)?,
                },
                SubmitKind::Modes => ServiceRequest::Modes {
                    graph: graph(file)?,
                },
                SubmitKind::Baseline => ServiceRequest::Baseline {
                    graph: graph(file)?,
                    repeats: *repeats,
                    full: *full,
                    perturb: std::env::var(PERTURB_ENV).ok(),
                },
                SubmitKind::Stats => ServiceRequest::Stats,
                SubmitKind::Metrics => ServiceRequest::Metrics,
                SubmitKind::Events => ServiceRequest::Events,
                SubmitKind::Shutdown => ServiceRequest::Shutdown,
            };
            let mut client = connect_with_retry(addr, *timeout_ms)?;
            let request_id = format!("cli-{}", std::process::id());
            let (line, response) = client.call_line(&request_id, &request)?;
            out.push_str(&line);
            if !response.is_ok() {
                code = 1;
            } else if let Some(payload) = &response.payload {
                // A clean envelope can still carry a dirty simulation:
                // surface the oracle verdict in the exit code, like
                // the local `simulate` command does.
                let dirty = sdf_trace::json::parse(payload)
                    .ok()
                    .and_then(|doc| doc.get("clean").and_then(|c| c.as_bool()))
                    == Some(false);
                if dirty {
                    code = 1;
                }
            }
        }
        Command::Explain {
            file,
            buffer,
            report,
            trace,
        } => {
            let request = ServiceRequest::Explain {
                graph: read_input(file)?,
            };
            let recorder = trace
                .as_ref()
                .map(|_| std::sync::Arc::new(sdf_trace::Recorder::new()));
            let response = match &recorder {
                None => execute_request(&request),
                Some(r) => sdf_trace::scoped(r, || execute_request(&request)),
            };
            let ResponsePayload::Explain { report: explain } =
                into_payload(response, &[("graph", file)])?
            else {
                unreachable!("explain request produced a foreign payload");
            };
            if let (Some(path), Some(recorder)) = (trace, &recorder) {
                let text = recorder
                    .snapshot()
                    .to_chrome_trace_json_with_tracks(&occupancy_tracks(&explain));
                std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
            }
            match report {
                ReportFormat::Json => {
                    let _ = writeln!(out, "{}", explain.to_json());
                }
                ReportFormat::Text => match explain.render_text(buffer.as_deref()) {
                    Some(text) => out.push_str(&text),
                    None => {
                        let known: Vec<&str> =
                            explain.ledger.iter().map(|e| e.buffer.as_str()).collect();
                        let _ = writeln!(
                            out,
                            "no buffer named `{}` in {file} (buffers: {})",
                            buffer.as_deref().unwrap_or(""),
                            known.join(", ")
                        );
                        code = 1;
                    }
                },
            }
        }
        Command::Modes { file, report } => {
            let request = ServiceRequest::Modes {
                graph: read_input(file)?,
            };
            let payload = into_payload(execute_request(&request), &[("graph", file)])?;
            let ResponsePayload::Modes { synthesis } = &payload else {
                unreachable!("modes request produced a foreign payload");
            };
            if synthesis.exec.is_err() {
                code = 1;
            }
            match report {
                ReportFormat::Json => {
                    let _ = writeln!(out, "{}", payload.to_json());
                }
                ReportFormat::Text => {
                    let _ = writeln!(
                        out,
                        "modegraph {}: {} modes, {} persistent buffer{}",
                        synthesis.plan.graph,
                        synthesis.summaries.len(),
                        synthesis.plan.persistent.len(),
                        if synthesis.plan.persistent.len() == 1 {
                            ""
                        } else {
                            "s"
                        }
                    );
                    for s in &synthesis.summaries {
                        let _ = writeln!(
                            out,
                            "  mode {}: {} actors, {} edges, standalone pool {} words \
                             (period {} firings)",
                            s.name, s.actors, s.edges, s.standalone_pool_words, s.firings
                        );
                    }
                    if !synthesis.plan.persistent.is_empty() {
                        let _ = writeln!(out, "persistent buffers (one offset, every mode):");
                        for p in &synthesis.plan.persistent {
                            let _ = writeln!(
                                out,
                                "  {}->{}: offset {}, {} words, {} delay token{}",
                                p.src,
                                p.snk,
                                p.offset,
                                p.size,
                                p.delay,
                                if p.delay == 1 { "" } else { "s" }
                            );
                        }
                    }
                    let _ = writeln!(
                        out,
                        "merged pool: {} words ({:.1}% saved over separate pools {})",
                        synthesis.merged_pool_words,
                        synthesis.savings_percent(),
                        synthesis.sum_pool_words
                    );
                    let _ = writeln!(
                        out,
                        "  gate: merged {} <= max standalone {} + persistent {} = {}  [{}]",
                        synthesis.merged_pool_words,
                        synthesis.max_pool_words,
                        synthesis.persistent_words,
                        synthesis.gate_bound,
                        if synthesis.gate_ok { "ok" } else { "EXCEEDED" }
                    );
                    match &synthesis.exec {
                        Ok(r) => {
                            let _ = writeln!(
                                out,
                                "transitions: oracle clean ({} activations, {} switches, \
                                 {} firings, peak live {}/{} words)",
                                r.activations.len(),
                                r.transitions,
                                r.firings,
                                r.peak_live_words,
                                r.pool_words
                            );
                        }
                        Err(e) => {
                            let _ = writeln!(out, "transitions: ORACLE VIOLATION");
                            let _ = writeln!(out, "  {e}");
                        }
                    }
                }
            }
        }
        Command::Edit {
            addr,
            file,
            edits,
            timeout_ms,
        } => {
            let graph = read_input(file.as_deref().ok_or(
                "`edit` needs a base graph: sdfmem edit <addr> --file <graph> --edits <script>",
            )?)?;
            let script = read_input(edits.as_deref().ok_or(
                "`edit` needs an edit script: sdfmem edit <addr> --file <graph> --edits <script>",
            )?)?;
            let request = ServiceRequest::Edit {
                graph,
                edits: script,
            };
            let mut client = connect_with_retry(addr, *timeout_ms)?;
            let request_id = format!("cli-{}", std::process::id());
            let (line, response) = client.call_line(&request_id, &request)?;
            out.push_str(&line);
            if !response.is_ok() {
                code = 1;
            }
        }
        Command::Top {
            addr,
            interval_ms,
            count,
            timeout_ms,
        } => {
            // Frames stream to stdout as they render (the whole point
            // of a live table); `out` only carries the sign-off line.
            let frames = top_frames(
                addr,
                *interval_ms,
                *count,
                *timeout_ms,
                &mut |frame: &str| {
                    print!("{frame}");
                    let _ = std::io::Write::flush(&mut std::io::stdout());
                },
            )?;
            let _ = writeln!(out, "sdfmem top: {frames} frame(s) rendered");
        }
    }
    Ok((out, code))
}

/// Connects to `addr`, retrying transport failures with capped
/// exponential backoff (10ms doubling to 200ms) until `timeout_ms` has
/// elapsed. `0` preserves the single-attempt behaviour. The final
/// error names the address and the budget, and reaches the shell as
/// exit code 2 like every other connect failure.
///
/// # Errors
///
/// The last connect error once the budget is spent.
pub fn connect_with_retry(addr: &str, timeout_ms: u64) -> Result<Client, String> {
    let start = std::time::Instant::now();
    let mut backoff_ms = 10u64;
    loop {
        match Client::connect(addr) {
            Ok(client) => return Ok(client),
            Err(e) => {
                let elapsed = u64::try_from(start.elapsed().as_millis()).unwrap_or(u64::MAX);
                if elapsed >= timeout_ms {
                    return Err(if timeout_ms == 0 {
                        e
                    } else {
                        format!("cannot connect to {addr} within {timeout_ms}ms: {e}")
                    });
                }
                let remaining = timeout_ms - elapsed;
                std::thread::sleep(std::time::Duration::from_millis(backoff_ms.min(remaining)));
                backoff_ms = (backoff_ms * 2).min(200);
            }
        }
    }
}

/// Pool-occupancy counter tracks for the explain trace export: one
/// point per timeline sample, with the logical schedule clock mapped
/// onto the export's microsecond axis (1 step = 1µs).
fn occupancy_tracks(report: &ExplainReport) -> Vec<sdf_trace::CounterTrack> {
    let series = |name: &str, value: fn(&sdf_service::ExplainTimelinePoint) -> u64| {
        sdf_trace::CounterTrack {
            name: name.to_string(),
            points: report.timeline.iter().map(|p| (p.time, value(p))).collect(),
        }
    };
    vec![
        series("pool.live_words", |p| p.live_words),
        series("pool.occupied_words", |p| p.occupied_words),
    ]
}

/// Per-op latency row: `(op, count, (lo, hi, count) bucket triples)`.
type OpLatencyRow = (String, u64, Vec<(u64, u64, u64)>);

/// One parsed `service_stats` sample, reduced to what the `top` table
/// shows.
#[derive(Debug)]
struct TopSample {
    requests: u64,
    hits: u64,
    misses: u64,
    queue_depth: u64,
    complete: u64,
    failed: u64,
    // Incremental-edit activity; all default to 0 against a daemon
    // from before the `edit` op existed.
    delta_runs: u64,
    cold_runs: u64,
    memo_occupancy: u64,
    memo_capacity: u64,
    sessions: u64,
    ops: Vec<OpLatencyRow>,
}

#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
fn parse_top_sample(payload: &str) -> Result<TopSample, String> {
    use sdf_trace::json::Json;
    let doc = sdf_trace::json::parse(payload).map_err(|e| format!("bad stats payload: {e}"))?;
    if doc.get("kind").and_then(Json::as_str) != Some("service_stats") {
        return Err("stats response is not a service_stats document".to_string());
    }
    let table = |name: &str, key: &str| -> u64 {
        doc.get(name)
            .and_then(|t| t.get(key))
            .and_then(Json::as_num)
            .unwrap_or(0.0) as u64
    };
    let mut ops = Vec::new();
    {
        let histograms = doc
            .get("histograms")
            .and_then(Json::members)
            .ok_or_else(|| {
                "stats payload has no \"histograms\" table \
                 (daemon speaking an older schema?)"
                    .to_string()
            })?;
        for (name, h) in histograms {
            let Some(op) = name
                .strip_prefix("service.op.")
                .and_then(|rest| rest.strip_suffix(".latency"))
            else {
                continue;
            };
            let count = h.get("count").and_then(Json::as_num).unwrap_or(0.0) as u64;
            let buckets: Vec<(u64, u64, u64)> = h
                .get("buckets")
                .and_then(Json::as_array)
                .map(|rows| {
                    rows.iter()
                        .filter_map(|row| {
                            let row = row.as_array()?;
                            let num = |i: usize| Some(row.get(i)?.as_num()? as u64);
                            Some((num(0)?, num(1)?, num(2)?))
                        })
                        .collect()
                })
                .unwrap_or_default();
            ops.push((op.to_string(), count, buckets));
        }
    }
    Ok(TopSample {
        requests: table("counters", "service.requests"),
        hits: table("counters", "service.cache.hits"),
        misses: table("counters", "service.cache.misses"),
        queue_depth: table("gauges", "service.queue.depth"),
        complete: table("counters", "service.jobs.complete"),
        failed: table("counters", "service.jobs.failed"),
        delta_runs: table("counters", "engine.incremental.delta_runs"),
        cold_runs: table("counters", "engine.incremental.cold_runs"),
        memo_occupancy: table("gauges", "engine.incremental.memo.occupancy"),
        memo_capacity: table("gauges", "engine.incremental.memo.capacity"),
        sessions: table("gauges", "engine.incremental.sessions"),
        ops,
    })
}

/// Renders one `top` frame: a summary line plus a per-op latency table.
fn render_top_frame(addr: &str, frame: u64, sample: &TopSample, rate: Option<f64>) -> String {
    let mut s = String::new();
    let rate = match rate {
        Some(r) => format!("{r:.1}/s"),
        None => "-".to_string(),
    };
    let lookups = sample.hits + sample.misses;
    let hit_rate = if lookups == 0 {
        "-".to_string()
    } else {
        #[allow(clippy::cast_precision_loss)]
        let pct = 100.0 * sample.hits as f64 / lookups as f64;
        format!("{pct:.1}%")
    };
    let _ = writeln!(s, "sdfmemd {addr} — frame {frame}");
    let _ = writeln!(
        s,
        "requests {} ({rate})   cache hit {hit_rate}   queue {}   jobs {} ok / {} failed",
        sample.requests, sample.queue_depth, sample.complete, sample.failed
    );
    let _ = writeln!(
        s,
        "edits {} delta / {} cold   memo {}/{}   sessions {}",
        sample.delta_runs,
        sample.cold_runs,
        sample.memo_occupancy,
        sample.memo_capacity,
        sample.sessions
    );
    let _ = writeln!(
        s,
        "{:<12} {:>8} {:>10} {:>10} {:>10}",
        "op", "count", "p50", "p95", "p99"
    );
    for (op, count, buckets) in &sample.ops {
        let q = |q: f64| match sdf_trace::quantile_from_buckets(buckets, q) {
            Some(ns) => sdf_trace::export::human_time(ns),
            None => "-".to_string(),
        };
        let _ = writeln!(
            s,
            "{op:<12} {count:>8} {:>10} {:>10} {:>10}",
            q(0.5),
            q(0.95),
            q(0.99)
        );
    }
    s.push('\n');
    s
}

/// Polls `addr`'s `stats` op every `interval_ms` and feeds rendered
/// frames to `sink`; `count == 0` keeps polling until the requested
/// frame count is reached. Returns the number of frames rendered.
///
/// # Errors
///
/// A human-readable message when the daemon cannot be reached, drops
/// the connection mid-session (before the requested frames were
/// rendered), answers with a non-`ok` envelope, or returns a stats
/// payload without its `histograms` table. Every path reports which
/// daemon failed and how — the caller maps these to exit code 2.
pub fn top_frames(
    addr: &str,
    interval_ms: u64,
    count: u64,
    timeout_ms: u64,
    sink: &mut dyn FnMut(&str),
) -> Result<u64, String> {
    let mut client = connect_with_retry(addr, timeout_ms)?;
    let request_id = format!("top-{}", std::process::id());
    let mut frames = 0u64;
    let mut prev: Option<(u64, std::time::Instant)> = None;
    loop {
        let sample = match client.call(&request_id, &ServiceRequest::Stats) {
            Ok(response) if response.is_ok() => {
                let payload = response.payload.as_deref().unwrap_or("");
                parse_top_sample(payload)?
            }
            Ok(response) => {
                let detail = response
                    .error
                    .map(|e| e.message)
                    .unwrap_or_else(|| response.status.clone());
                return Err(format!("stats request failed: {detail}"));
            }
            Err(e) if frames > 0 => {
                return Err(format!(
                    "daemon at {addr} dropped the connection after {frames} frame(s): {e}"
                ));
            }
            Err(e) => return Err(format!("cannot poll daemon at {addr}: {e}")),
        };
        let now = std::time::Instant::now();
        #[allow(clippy::cast_precision_loss)]
        let rate = prev.map(|(requests, at)| {
            let elapsed = now.duration_since(at).as_secs_f64().max(1e-9);
            sample.requests.saturating_sub(requests) as f64 / elapsed
        });
        prev = Some((sample.requests, now));
        frames += 1;
        sink(&render_top_frame(addr, frames, &sample, rate));
        if count > 0 && frames >= count {
            return Ok(frames);
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_help_variants() {
        for h in [&["help"][..], &["--help"], &["-h"], &[]] {
            assert_eq!(parse_args(&args(h)).unwrap(), Command::Help);
        }
    }

    #[test]
    fn parse_commands_with_options() {
        assert_eq!(
            parse_args(&args(&["info", "g.sdf"])).unwrap(),
            Command::Info {
                file: "g.sdf".into()
            }
        );
        assert_eq!(
            parse_args(&args(&[
                "schedule",
                "g.sdf",
                "--method",
                "rpmc",
                "--model",
                "nonshared"
            ]))
            .unwrap(),
            Command::Schedule {
                file: "g.sdf".into(),
                method: Method::Rpmc,
                model: Model::NonShared
            }
        );
        assert_eq!(
            parse_args(&args(&["codegen", "g.sdf", "--model", "shared"])).unwrap(),
            Command::Codegen {
                file: "g.sdf".into(),
                method: Method::Apgan,
                model: Model::Shared,
                standalone: false
            }
        );
        assert_eq!(
            parse_args(&args(&["codegen", "g.sdf", "--standalone"])).unwrap(),
            Command::Codegen {
                file: "g.sdf".into(),
                method: Method::Apgan,
                model: Model::Shared,
                standalone: true
            }
        );
    }

    #[test]
    fn parse_simulate_command() {
        assert_eq!(
            parse_args(&args(&["simulate", "g.sdf"])).unwrap(),
            Command::Simulate {
                file: "g.sdf".into(),
                method: Method::Apgan,
                model: Model::Shared,
                report: ReportFormat::Text
            }
        );
        assert_eq!(
            parse_args(&args(&[
                "simulate",
                "g.sdf",
                "--method",
                "rpmc",
                "--model",
                "nonshared",
                "--report",
                "json"
            ]))
            .unwrap(),
            Command::Simulate {
                file: "g.sdf".into(),
                method: Method::Rpmc,
                model: Model::NonShared,
                report: ReportFormat::Json
            }
        );
        assert!(parse_args(&args(&["simulate"])).is_err());
    }

    #[test]
    fn parse_errors() {
        assert!(parse_args(&args(&["frobnicate", "x"])).is_err());
        assert!(parse_args(&args(&["info"])).is_err());
        assert!(parse_args(&args(&["schedule", "g", "--method", "magic"])).is_err());
        assert!(parse_args(&args(&["schedule", "g", "--bogus"])).is_err());
    }

    fn write_fig2() -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("sdfmem-cli-tests");
        std::fs::create_dir_all(&dir).expect("temp dir");
        // One file per call: tests run concurrently, and a shared path
        // could be read while another test truncates it.
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let seq = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let path = dir.join(format!("fig2-{}-{seq}.sdf", std::process::id()));
        std::fs::write(&path, "graph fig2\nedge A B 20 10\nedge B C 20 10\n")
            .expect("write temp graph");
        path
    }

    #[test]
    fn end_to_end_info() {
        let path = write_fig2();
        let out = run(&Command::Info {
            file: path.to_string_lossy().into_owned(),
        })
        .unwrap();
        assert!(out.contains("consistent"), "{out}");
        assert!(out.contains("q(C) = 4"), "{out}");
    }

    #[test]
    fn end_to_end_schedule_and_allocate() {
        let path = write_fig2();
        let file = path.to_string_lossy().into_owned();
        let s = run(&Command::Schedule {
            file: file.clone(),
            method: Method::Apgan,
            model: Model::Shared,
        })
        .unwrap();
        assert!(s.contains("schedule:"), "{s}");
        let a = run(&Command::Allocate {
            file,
            method: Method::Apgan,
        })
        .unwrap();
        assert!(a.contains("pool:"), "{a}");
        assert!(a.contains("A -> B"), "{a}");
    }

    #[test]
    fn end_to_end_codegen() {
        let path = write_fig2();
        let file = path.to_string_lossy().into_owned();
        let c = run(&Command::Codegen {
            file: file.clone(),
            method: Method::Rpmc,
            model: Model::Shared,
            standalone: false,
        })
        .unwrap();
        assert!(c.contains("float mem["), "{c}");
        assert!(c.contains("run_schedule"), "{c}");
        assert!(!c.contains("int main"), "{c}");
        let s = run(&Command::Codegen {
            file,
            method: Method::Rpmc,
            model: Model::Shared,
            standalone: true,
        })
        .unwrap();
        assert!(s.contains("int main(void)"), "{s}");
        assert!(s.contains("run_schedule();"), "{s}");
    }

    #[test]
    fn end_to_end_simulate_text_is_clean() {
        let path = write_fig2();
        for model in [Model::Shared, Model::NonShared] {
            let (out, code) = execute(&Command::Simulate {
                file: path.to_string_lossy().into_owned(),
                method: Method::Apgan,
                model,
                report: ReportFormat::Text,
            })
            .unwrap();
            assert_eq!(code, 0, "{out}");
            assert!(out.contains("simulated clean"), "{out}");
            assert!(out.contains("firings:   7"), "{out}");
        }
    }

    #[test]
    fn simulate_json_report_round_trips_with_embedded_plan() {
        let path = write_fig2();
        let (out, code) = execute(&Command::Simulate {
            file: path.to_string_lossy().into_owned(),
            method: Method::Apgan,
            model: Model::Shared,
            report: ReportFormat::Json,
        })
        .unwrap();
        assert_eq!(code, 0, "{out}");
        let doc = sdf_trace::json::parse(&out).expect("simulation report parses");
        assert_eq!(
            doc.get("kind").and_then(|k| k.as_str()),
            Some("simulation_report")
        );
        assert_eq!(
            doc.get("schema_version").and_then(|v| v.as_num()),
            Some(sdf_trace::SCHEMA_VERSION as f64)
        );
        assert_eq!(doc.get("clean").and_then(|c| c.as_bool()), Some(true));
        let exec = doc.get("exec").expect("exec block");
        assert_eq!(exec.get("firings").and_then(|f| f.as_num()), Some(7.0));
        // The embedded plan is itself a complete `executable_plan` document.
        let plan = doc.get("plan").expect("embedded plan");
        assert_eq!(
            plan.get("kind").and_then(|k| k.as_str()),
            Some("executable_plan")
        );
        assert_eq!(plan.get("graph").and_then(|g| g.as_str()), Some("fig2"));
        let ops = plan.get("ops").and_then(|o| o.as_array()).expect("ops");
        assert!(!ops.is_empty());
    }

    #[test]
    fn end_to_end_gantt_and_dot() {
        let path = write_fig2();
        let file = path.to_string_lossy().into_owned();
        let g = run(&Command::Gantt {
            file: file.clone(),
            method: Method::Apgan,
        })
        .unwrap();
        assert!(g.contains("schedule:"), "{g}");
        assert!(g.contains('#'), "{g}");
        assert!(g.contains("(A,B)"), "{g}");
        let d = run(&Command::Dot { file }).unwrap();
        assert!(d.contains("digraph \"fig2\""), "{d}");
        assert!(d.contains("label=\"20,10\""), "{d}");
    }

    #[test]
    fn parse_gantt_and_dot_commands() {
        assert_eq!(
            parse_args(&args(&["gantt", "g.sdf", "--method", "rpmc"])).unwrap(),
            Command::Gantt {
                file: "g.sdf".into(),
                method: Method::Rpmc
            }
        );
        assert_eq!(
            parse_args(&args(&["dot", "g.sdf"])).unwrap(),
            Command::Dot {
                file: "g.sdf".into()
            }
        );
    }

    #[test]
    fn parse_analyze_command() {
        assert_eq!(
            parse_args(&args(&["analyze", "g.sdf"])).unwrap(),
            Command::Analyze {
                file: "g.sdf".into(),
                report: ReportFormat::Text,
                serial: false,
                full: false,
                trace: None
            }
        );
        assert_eq!(
            parse_args(&args(&[
                "analyze", "g.sdf", "--report", "json", "--serial", "--full", "--trace", "t.json"
            ]))
            .unwrap(),
            Command::Analyze {
                file: "g.sdf".into(),
                report: ReportFormat::Json,
                serial: true,
                full: true,
                trace: Some("t.json".into())
            }
        );
        assert!(parse_args(&args(&["analyze", "g.sdf", "--report", "xml"])).is_err());
    }

    #[test]
    fn parse_profile_command() {
        assert_eq!(
            parse_args(&args(&["profile", "g.sdf"])).unwrap(),
            Command::Profile {
                file: "g.sdf".into(),
                full: false
            }
        );
        assert_eq!(
            parse_args(&args(&["profile", "g.sdf", "--full"])).unwrap(),
            Command::Profile {
                file: "g.sdf".into(),
                full: true
            }
        );
    }

    #[test]
    fn bad_option_values_each_name_the_flag() {
        // Every bad flag value must fail with a message naming the flag, so
        // main.rs can print it plus the usage hint to stderr and exit 2.
        let cases: &[(&[&str], &str)] = &[
            (&["schedule", "g", "--method", "magic"], "--method"),
            (&["schedule", "g", "--method"], "--method"),
            (&["schedule", "g", "--model", "psychic"], "--model"),
            (&["schedule", "g", "--model"], "--model"),
            (&["analyze", "g", "--report", "xml"], "--report"),
            (&["analyze", "g", "--report"], "--report"),
            (&["analyze", "g", "--trace"], "--trace"),
            (&["analyze", "g", "--frobnicate"], "--frobnicate"),
            (&["baseline", "g", "--out"], "--out"),
            (&["baseline", "g", "--repeats"], "--repeats"),
            (&["baseline", "g", "--repeats", "many"], "--repeats"),
            (&["baseline", "g", "--repeats", "0"], "--repeats"),
            (&["compare", "a", "b", "--format", "xml"], "--format"),
            (&["compare", "a", "b", "--format"], "--format"),
            (&["compare", "a", "b", "--allow"], "--allow"),
            (&["simulate", "g", "--model", "psychic"], "--model"),
            (&["simulate", "g", "--method"], "--method"),
            (&["simulate", "g", "--report", "xml"], "--report"),
            (&["simulate", "g", "--bogus"], "--bogus"),
        ];
        for (argv, flag) in cases {
            let err = parse_args(&args(argv)).unwrap_err();
            assert!(err.contains(flag), "{argv:?} -> {err}");
        }
    }

    #[test]
    fn parse_baseline_and_compare_commands() {
        assert_eq!(
            parse_args(&args(&["baseline", "g.sdf"])).unwrap(),
            Command::Baseline {
                file: "g.sdf".into(),
                out: None,
                repeats: 3,
                full: false
            }
        );
        assert_eq!(
            parse_args(&args(&[
                "baseline",
                "g.sdf",
                "--out",
                "b.json",
                "--repeats",
                "5",
                "--full"
            ]))
            .unwrap(),
            Command::Baseline {
                file: "g.sdf".into(),
                out: Some("b.json".into()),
                repeats: 5,
                full: true
            }
        );
        assert_eq!(
            parse_args(&args(&["compare", "a.json", "b.json"])).unwrap(),
            Command::Compare {
                baseline: "a.json".into(),
                candidate: "b.json".into(),
                gate: false,
                format: DiffFormat::Text,
                allow: vec![]
            }
        );
        assert_eq!(
            parse_args(&args(&[
                "compare",
                "a.json",
                "b.json",
                "--gate",
                "--format",
                "md",
                "--allow",
                "sched.*,winner"
            ]))
            .unwrap(),
            Command::Compare {
                baseline: "a.json".into(),
                candidate: "b.json".into(),
                gate: true,
                format: DiffFormat::Markdown,
                allow: vec!["sched.*".into(), "winner".into()]
            }
        );
        // A lone positional is not enough for compare.
        assert!(parse_args(&args(&["compare", "a.json"]))
            .unwrap_err()
            .contains("compare"));
    }

    #[test]
    fn end_to_end_baseline_and_compare() {
        let path = write_fig2();
        let file = path.to_string_lossy().into_owned();
        let dir = std::env::temp_dir().join("sdfmem-cli-tests");
        let base = dir.join(format!("base-{}.json", std::process::id()));
        let cand = dir.join(format!("cand-{}.json", std::process::id()));
        for target in [&base, &cand] {
            let (msg, code) = execute(&Command::Baseline {
                file: file.clone(),
                out: Some(target.to_string_lossy().into_owned()),
                repeats: 2,
                full: false,
            })
            .unwrap();
            assert_eq!(code, 0);
            assert!(msg.contains("wrote baseline profile"), "{msg}");
        }
        // Two captures of the same graph: clean, exit 0.
        let compare = |candidate: &std::path::Path| {
            execute(&Command::Compare {
                baseline: base.to_string_lossy().into_owned(),
                candidate: candidate.to_string_lossy().into_owned(),
                gate: false,
                format: DiffFormat::Text,
                allow: vec![],
            })
        };
        let (text, code) = compare(&cand).unwrap();
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("0 gate failure(s)"), "{text}");
        // A perturbed candidate trips the gate with the counter named.
        let perturbed = dir.join(format!("pert-{}.json", std::process::id()));
        let mut profile =
            sdf_regress::Profile::parse(&std::fs::read_to_string(&cand).unwrap()).unwrap();
        profile.apply_perturbation("sched.dppo.cells=+7").unwrap();
        std::fs::write(&perturbed, profile.to_json()).unwrap();
        let (text, code) = compare(&perturbed).unwrap();
        assert_eq!(code, 1, "{text}");
        assert!(text.contains("sched.dppo.cells"), "{text}");
        assert!(text.contains("REGRESSION"), "{text}");
        // ... unless the counter is allow-listed.
        let (text, code) = execute(&Command::Compare {
            baseline: base.to_string_lossy().into_owned(),
            candidate: perturbed.to_string_lossy().into_owned(),
            gate: false,
            format: DiffFormat::Json,
            allow: vec!["sched.*".into()],
        })
        .unwrap();
        assert_eq!(code, 0, "{text}");
        sdf_trace::json::parse(&text).expect("JSON report parses");
        // Unreadable and malformed inputs are errors (exit 2 in main),
        // not panics.
        let missing = compare(std::path::Path::new("/nonexistent.json")).unwrap_err();
        assert!(missing.contains("cannot read"), "{missing}");
        let garbage = dir.join(format!("garbage-{}.json", std::process::id()));
        std::fs::write(&garbage, "{\"schema_version\":1}").unwrap();
        let foreign = compare(&garbage).unwrap_err();
        assert!(foreign.contains("schema_version"), "{foreign}");
        for f in [base, cand, perturbed, garbage] {
            let _ = std::fs::remove_file(f);
        }
    }

    #[test]
    fn end_to_end_analyze() {
        let path = write_fig2();
        let file = path.to_string_lossy().into_owned();
        let text = run(&Command::Analyze {
            file: file.clone(),
            report: ReportFormat::Text,
            serial: false,
            full: true,
            trace: None,
        })
        .unwrap();
        assert!(text.contains("shared pool:"), "{text}");
        assert!(text.contains("rationale:"), "{text}");
        assert!(text.contains("chain_precise"), "{text}");
        let json = run(&Command::Analyze {
            file,
            report: ReportFormat::Json,
            serial: true,
            full: false,
            trace: None,
        })
        .unwrap();
        assert!(json.trim_end().starts_with('{'), "{json}");
        assert!(json.contains("\"candidates\":["), "{json}");
        assert!(json.contains("\"parallel\":false"), "{json}");
    }

    #[test]
    fn end_to_end_analyze_trace_writes_chrome_json_and_jsonl() {
        let path = write_fig2();
        let file = path.to_string_lossy().into_owned();
        let dir = std::env::temp_dir().join("sdfmem-cli-tests");
        let trace_json = dir.join(format!("trace-{}.json", std::process::id()));
        let trace_jsonl = dir.join(format!("trace-{}.jsonl", std::process::id()));
        run(&Command::Analyze {
            file: file.clone(),
            report: ReportFormat::Json,
            serial: true,
            full: false,
            trace: Some(trace_json.to_string_lossy().into_owned()),
        })
        .unwrap();
        let chrome = std::fs::read_to_string(&trace_json).unwrap();
        let parsed = sdf_trace::json::parse(&chrome).expect("valid chrome trace JSON");
        let events = parsed.get("traceEvents").unwrap().as_array().unwrap();
        assert!(!events.is_empty());
        let names: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("name").and_then(|n| n.as_str()))
            .collect();
        assert!(names.contains(&"engine.run"), "{names:?}");
        assert!(names.contains(&"engine.candidate"), "{names:?}");
        run(&Command::Analyze {
            file,
            report: ReportFormat::Json,
            serial: true,
            full: false,
            trace: Some(trace_jsonl.to_string_lossy().into_owned()),
        })
        .unwrap();
        let jsonl = std::fs::read_to_string(&trace_jsonl).unwrap();
        for line in jsonl.lines() {
            sdf_trace::json::parse(line).expect("every JSONL line parses");
        }
        let _ = std::fs::remove_file(trace_json);
        let _ = std::fs::remove_file(trace_jsonl);
    }

    #[test]
    fn end_to_end_profile() {
        let path = write_fig2();
        let file = path.to_string_lossy().into_owned();
        let out = run(&Command::Profile { file, full: false }).unwrap();
        assert!(out.contains("engine.run"), "{out}");
        assert!(out.contains("candidate.alloc"), "{out}");
        assert!(out.contains("counters:"), "{out}");
        assert!(out.contains("sched.dppo.cells"), "{out}");
        assert!(out.contains("alloc.first_fit.probes"), "{out}");
    }

    #[test]
    fn missing_file_is_reported() {
        let err = run(&Command::Info {
            file: "/nonexistent/x.sdf".into(),
        })
        .unwrap_err();
        assert!(err.contains("cannot read"), "{err}");
    }

    #[test]
    fn parse_serve_and_submit_commands() {
        assert_eq!(
            parse_args(&args(&["serve", "127.0.0.1:0"])).unwrap(),
            Command::Serve {
                addr: "127.0.0.1:0".into(),
                workers: 2,
                cache_cap: 256,
                queue_cap: 64,
                port_file: None,
                trace_dir: None
            }
        );
        assert_eq!(
            parse_args(&args(&[
                "serve",
                "127.0.0.1:7654",
                "--workers",
                "4",
                "--cache-cap",
                "16",
                "--queue-cap",
                "8",
                "--port-file",
                "port.txt",
                "--trace-dir",
                "traces"
            ]))
            .unwrap(),
            Command::Serve {
                addr: "127.0.0.1:7654".into(),
                workers: 4,
                cache_cap: 16,
                queue_cap: 8,
                port_file: Some("port.txt".into()),
                trace_dir: Some("traces".into())
            }
        );
        assert_eq!(
            parse_args(&args(&["submit", "127.0.0.1:7654", "--file", "g.sdf"])).unwrap(),
            Command::Submit {
                addr: "127.0.0.1:7654".into(),
                kind: SubmitKind::Analyze,
                file: Some("g.sdf".into()),
                method: Method::Apgan,
                model: Model::Shared,
                serial: false,
                full: false,
                repeats: 3,
                timeout_ms: 0
            }
        );
        assert_eq!(
            parse_args(&args(&[
                "submit",
                "127.0.0.1:7654",
                "--kind",
                "simulate",
                "--file",
                "g.sdf",
                "--method",
                "rpmc",
                "--model",
                "nonshared"
            ]))
            .unwrap(),
            Command::Submit {
                addr: "127.0.0.1:7654".into(),
                kind: SubmitKind::Simulate,
                file: Some("g.sdf".into()),
                method: Method::Rpmc,
                model: Model::NonShared,
                serial: false,
                full: false,
                repeats: 3,
                timeout_ms: 0
            }
        );
        assert_eq!(
            parse_args(&args(&["submit", "127.0.0.1:7654", "--kind", "shutdown"])).unwrap(),
            Command::Submit {
                addr: "127.0.0.1:7654".into(),
                kind: SubmitKind::Shutdown,
                file: None,
                method: Method::Apgan,
                model: Model::Shared,
                serial: false,
                full: false,
                repeats: 3,
                timeout_ms: 0
            }
        );
        assert!(parse_args(&args(&["serve"])).unwrap_err().contains("addr"));
        let bad_kind = parse_args(&args(&["submit", "a:1", "--kind", "magic"])).unwrap_err();
        assert!(bad_kind.contains("--kind"), "{bad_kind}");
        let bad_workers = parse_args(&args(&["serve", "a:1", "--workers", "many"])).unwrap_err();
        assert!(bad_workers.contains("--workers"), "{bad_workers}");
    }

    #[test]
    fn parse_top_command_and_telemetry_submit_kinds() {
        assert_eq!(
            parse_args(&args(&["top", "127.0.0.1:7654"])).unwrap(),
            Command::Top {
                addr: "127.0.0.1:7654".into(),
                interval_ms: 1000,
                count: 0,
                timeout_ms: 0
            }
        );
        assert_eq!(
            parse_args(&args(&[
                "top",
                "127.0.0.1:7654",
                "--interval-ms",
                "50",
                "--count",
                "3"
            ]))
            .unwrap(),
            Command::Top {
                addr: "127.0.0.1:7654".into(),
                interval_ms: 50,
                count: 3,
                timeout_ms: 0
            }
        );
        for kind in ["metrics", "events"] {
            let parsed = parse_args(&args(&["submit", "a:1", "--kind", kind])).unwrap();
            let Command::Submit { kind: parsed, .. } = parsed else {
                panic!("expected a submit command");
            };
            let expected = if kind == "metrics" {
                SubmitKind::Metrics
            } else {
                SubmitKind::Events
            };
            assert_eq!(parsed, expected);
        }
        assert!(parse_args(&args(&["top"])).unwrap_err().contains("addr"));
        let bad = parse_args(&args(&["top", "a:1", "--interval-ms", "soon"])).unwrap_err();
        assert!(bad.contains("--interval-ms"), "{bad}");
        let bad = parse_args(&args(&["top", "a:1", "--count", "all"])).unwrap_err();
        assert!(bad.contains("--count"), "{bad}");
    }

    #[test]
    fn parse_explain_command() {
        assert_eq!(
            parse_args(&args(&["explain", "g.sdf"])).unwrap(),
            Command::Explain {
                file: "g.sdf".into(),
                buffer: None,
                report: ReportFormat::Text,
                trace: None
            }
        );
        assert_eq!(
            parse_args(&args(&[
                "explain", "g.sdf", "--buffer", "A->B", "--report", "json", "--trace", "t.json"
            ]))
            .unwrap(),
            Command::Explain {
                file: "g.sdf".into(),
                buffer: Some("A->B".into()),
                report: ReportFormat::Json,
                trace: Some("t.json".into())
            }
        );
        let missing = parse_args(&args(&["explain", "g.sdf", "--buffer"])).unwrap_err();
        assert!(missing.contains("--buffer"), "{missing}");
        let parsed = parse_args(&args(&["submit", "a:1", "--kind", "explain"])).unwrap();
        let Command::Submit { kind, .. } = parsed else {
            panic!("expected a submit command");
        };
        assert_eq!(kind, SubmitKind::Explain);
    }

    #[test]
    fn end_to_end_explain() {
        let path = write_fig2();
        let file = path.to_string_lossy().into_owned();
        let trace_path = path.with_extension("explain-trace.json");
        let (text, code) = execute(&Command::Explain {
            file: file.clone(),
            buffer: None,
            report: ReportFormat::Text,
            trace: Some(trace_path.to_string_lossy().into_owned()),
        })
        .unwrap();
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("allocation provenance for `fig2`"), "{text}");
        assert!(text.contains("`A->B`"), "{text}");
        assert!(text.contains("pool occupancy"), "{text}");
        // The trace carries Perfetto counter tracks for both occupancy
        // series.
        let trace_text = std::fs::read_to_string(&trace_path).unwrap();
        assert!(trace_text.contains("\"ph\":\"C\""), "{trace_text}");
        assert!(trace_text.contains("pool.live_words"), "{trace_text}");
        assert!(trace_text.contains("pool.occupied_words"), "{trace_text}");
        sdf_trace::json::parse(&trace_text).expect("trace is valid JSON");
        let _ = std::fs::remove_file(&trace_path);
        // The JSON form is the allocation_explain document and its
        // ledger/timeline invariants hold end to end.
        let (json_out, code) = execute(&Command::Explain {
            file: file.clone(),
            buffer: None,
            report: ReportFormat::Json,
            trace: None,
        })
        .unwrap();
        assert_eq!(code, 0, "{json_out}");
        let doc = sdf_trace::json::parse(json_out.trim()).expect("valid JSON");
        use sdf_trace::json::Json;
        assert_eq!(
            doc.get("kind").and_then(Json::as_str),
            Some("allocation_explain")
        );
        let total = doc
            .get("fragmentation_words")
            .and_then(Json::as_num)
            .unwrap();
        let ledger_sum: f64 = doc
            .get("ledger")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|e| e.get("fragmentation").and_then(Json::as_num).unwrap())
            .sum();
        assert_eq!(ledger_sum, total);
        assert_eq!(
            doc.get("timeline")
                .and_then(|t| t.get("peak_occupied"))
                .and_then(Json::as_num),
            doc.get("pool_total").and_then(Json::as_num)
        );
        // A buffer filter narrows the story; an unknown name is a
        // domain failure (exit 1), not a usage error.
        let (only, code) = execute(&Command::Explain {
            file: file.clone(),
            buffer: Some("B->C".into()),
            report: ReportFormat::Text,
            trace: None,
        })
        .unwrap();
        assert_eq!(code, 0, "{only}");
        assert!(only.contains("`B->C`"), "{only}");
        assert!(!only.contains("`A->B`"), "{only}");
        let (missing, code) = execute(&Command::Explain {
            file,
            buffer: Some("X->Y".into()),
            report: ReportFormat::Text,
            trace: None,
        })
        .unwrap();
        assert_eq!(code, 1, "{missing}");
        assert!(missing.contains("no buffer named `X->Y`"), "{missing}");
        assert!(missing.contains("A->B"), "{missing}");
    }

    /// A single-connection stand-in daemon: answers each scripted line
    /// in order, then drops the connection.
    fn fake_daemon(responses: Vec<String>) -> (String, std::thread::JoinHandle<()>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let mut reader = std::io::BufReader::new(stream.try_clone().expect("clone"));
            let mut stream = stream;
            for response in responses {
                let mut line = String::new();
                if std::io::BufRead::read_line(&mut reader, &mut line).unwrap_or(0) == 0 {
                    return;
                }
                let _ = std::io::Write::write_all(&mut stream, response.as_bytes());
                let _ = std::io::Write::write_all(&mut stream, b"\n");
                let _ = std::io::Write::flush(&mut stream);
            }
            // Dropping the socket here is the mid-session hangup.
        });
        (addr, handle)
    }

    fn stats_envelope(payload: &str) -> String {
        format!(
            "{{\"kind\":\"service_response\",\"schema_version\":{},\"request_id\":\"t\",\
             \"status\":\"ok\",\"cached\":false,\"payload\":{payload}}}",
            sdf_trace::SCHEMA_VERSION
        )
    }

    #[test]
    fn top_reports_a_mid_session_hangup_as_a_transport_error() {
        let payload = format!(
            "{{\"kind\":\"service_stats\",\"schema_version\":{},\"counters\":{{}},\
             \"gauges\":{{}},\"histograms\":{{}}}}",
            sdf_trace::SCHEMA_VERSION
        );
        let (addr, handle) = fake_daemon(vec![stats_envelope(&payload)]);
        // One frame renders, then the daemon hangs up before the second
        // of three requested frames: a transport error (exit 2 in
        // main), not a clean finish and not a panic.
        let mut sink_frames = 0u64;
        let err = top_frames(&addr, 1, 3, 0, &mut |_| sink_frames += 1).unwrap_err();
        assert!(err.contains("dropped the connection"), "{err}");
        assert!(err.contains(&addr), "{err}");
        assert_eq!(sink_frames, 1);
        handle.join().unwrap();
    }

    #[test]
    fn top_rejects_a_stats_payload_without_histograms() {
        let truncated = format!(
            "{{\"kind\":\"service_stats\",\"schema_version\":{},\"counters\":{{}},\
             \"gauges\":{{}}}}",
            sdf_trace::SCHEMA_VERSION
        );
        let err = parse_top_sample(&truncated).unwrap_err();
        assert!(err.contains("histograms"), "{err}");
        // And through the polling loop: the malformed payload is an
        // error on the very first frame.
        let (addr, handle) = fake_daemon(vec![stats_envelope(&truncated)]);
        let err = top_frames(&addr, 1, 1, 0, &mut |_| {}).unwrap_err();
        assert!(err.contains("histograms"), "{err}");
        handle.join().unwrap();
    }

    #[test]
    fn options_that_belong_to_other_commands_are_rejected() {
        // The exit-code/flag contract: every command accepts exactly
        // its documented options, and the error names the stray flag.
        let cases: &[(&[&str], &str)] = &[
            (&["info", "g", "--method", "apgan"], "--method"),
            (&["bounds", "g", "--report", "json"], "--report"),
            (&["dot", "g", "--full"], "--full"),
            (&["schedule", "g", "--standalone"], "--standalone"),
            (&["schedule", "g", "--report", "json"], "--report"),
            (&["allocate", "g", "--model", "shared"], "--model"),
            (&["analyze", "g", "--method", "apgan"], "--method"),
            (&["analyze", "g", "--out", "x"], "--out"),
            (&["profile", "g", "--serial"], "--serial"),
            (&["baseline", "g", "--gate"], "--gate"),
            (&["compare", "a", "b", "--repeats", "3"], "--repeats"),
            (&["codegen", "g", "--trace", "t"], "--trace"),
            (&["simulate", "g", "--standalone"], "--standalone"),
            (&["gantt", "g", "--model", "shared"], "--model"),
            (&["serve", "a:1", "--method", "apgan"], "--method"),
            (&["serve", "a:1", "--interval-ms", "9"], "--interval-ms"),
            (&["submit", "a:1", "--standalone"], "--standalone"),
            (&["submit", "a:1", "--trace-dir", "d"], "--trace-dir"),
            (&["top", "a:1", "--workers", "2"], "--workers"),
            (&["top", "a:1", "--kind", "stats"], "--kind"),
            (&["explain", "g", "--method", "apgan"], "--method"),
            (&["explain", "g", "--full"], "--full"),
            (&["analyze", "g", "--buffer", "b"], "--buffer"),
            (&["simulate", "g", "--buffer", "b"], "--buffer"),
            (&["edit", "a:1", "--kind", "stats"], "--kind"),
            (&["edit", "a:1", "--method", "apgan"], "--method"),
            (&["submit", "a:1", "--edits", "e"], "--edits"),
            (&["analyze", "g", "--timeout-ms", "5"], "--timeout-ms"),
            (&["serve", "a:1", "--timeout-ms", "5"], "--timeout-ms"),
        ];
        for (argv, flag) in cases {
            let err = parse_args(&args(argv)).unwrap_err();
            assert!(err.contains(flag), "{argv:?} -> {err}");
            assert!(err.contains("does not apply"), "{argv:?} -> {err}");
        }
    }

    #[test]
    fn end_to_end_serve_and_submit() {
        let path = write_fig2();
        let file = path.to_string_lossy().into_owned();
        // A private daemon on an ephemeral port.
        let server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
        let addr = server.local_addr().to_string();
        let submit = |kind: SubmitKind, file: Option<String>| {
            execute(&Command::Submit {
                addr: addr.clone(),
                kind,
                file,
                method: Method::Apgan,
                model: Model::Shared,
                serial: false,
                full: false,
                repeats: 2,
                timeout_ms: 0,
            })
        };
        // First analyze computes, the repeat is served from cache —
        // with byte-identical payload bytes inside the envelope.
        let (first, code) = submit(SubmitKind::Analyze, Some(file.clone())).unwrap();
        assert_eq!(code, 0, "{first}");
        assert!(first.contains("\"status\":\"ok\""), "{first}");
        assert!(first.contains("\"cached\":false"), "{first}");
        let (second, code) = submit(SubmitKind::Analyze, Some(file.clone())).unwrap();
        assert_eq!(code, 0, "{second}");
        assert!(second.contains("\"cached\":true"), "{second}");
        let payload_of = |line: &str| {
            let start = line.find(",\"payload\":").expect("payload member") + 11;
            line[start..line.trim_end().len() - 1].to_string()
        };
        assert_eq!(payload_of(&first), payload_of(&second));
        // A simulate submission exits 0 only when the oracle is clean.
        let (sim, code) = submit(SubmitKind::Simulate, Some(file.clone())).unwrap();
        assert_eq!(code, 0, "{sim}");
        assert!(sim.contains("\"clean\":true"), "{sim}");
        // A broken graph is a domain failure: error envelope, exit 1.
        let broken = path.with_extension("broken.sdf");
        std::fs::write(&broken, "graph broken\nedge A\n").unwrap();
        let (err, code) = submit(
            SubmitKind::Analyze,
            Some(broken.to_string_lossy().into_owned()),
        )
        .unwrap();
        assert_eq!(code, 1, "{err}");
        assert!(err.contains("\"status\":\"error\""), "{err}");
        assert!(err.contains("parse_error"), "{err}");
        // Stats reports the daemon's counters plus latency histogram
        // summaries; metrics exposes the same instruments as
        // Prometheus-style text; events drains the flight recorder.
        let (stats, code) = submit(SubmitKind::Stats, None).unwrap();
        assert_eq!(code, 0, "{stats}");
        assert!(stats.contains("service.cache.hits"), "{stats}");
        assert!(stats.contains("\"histograms\""), "{stats}");
        assert!(stats.contains("service.op.analyze.latency"), "{stats}");
        let (metrics, code) = submit(SubmitKind::Metrics, None).unwrap();
        assert_eq!(code, 0, "{metrics}");
        assert!(
            metrics.contains("\"kind\":\"service_metrics\""),
            "{metrics}"
        );
        assert!(
            metrics.contains("service_op_analyze_latency_bucket"),
            "{metrics}"
        );
        let (events, code) = submit(SubmitKind::Events, None).unwrap();
        assert_eq!(code, 0, "{events}");
        assert!(events.contains("\"kind\":\"service_events\""), "{events}");
        assert!(events.contains("\"op\":\"analyze\""), "{events}");
        // `top` against the live daemon renders the requested number of
        // frames through the sink and reports per-op quantiles.
        let mut captured = String::new();
        let frames = top_frames(&addr, 1, 2, 0, &mut |frame: &str| captured.push_str(frame))
            .expect("top frames");
        assert_eq!(frames, 2);
        assert!(captured.contains("sdfmemd"), "{captured}");
        assert!(captured.contains("analyze"), "{captured}");
        assert!(captured.contains("p95"), "{captured}");
        let (bye, code) = submit(SubmitKind::Shutdown, None).unwrap();
        assert_eq!(code, 0, "{bye}");
        server.wait();
        // The daemon is gone: connecting now is a transport error
        // (exit 2 in main).
        let refused = submit(SubmitKind::Stats, None);
        assert!(refused.is_err(), "{refused:?}");
        let _ = std::fs::remove_file(broken);
    }

    #[test]
    fn parse_edit_command_and_timeouts() {
        assert_eq!(
            parse_args(&args(&[
                "edit",
                "127.0.0.1:7654",
                "--file",
                "g.sdf",
                "--edits",
                "g.edits",
                "--timeout-ms",
                "2000"
            ]))
            .unwrap(),
            Command::Edit {
                addr: "127.0.0.1:7654".into(),
                file: Some("g.sdf".into()),
                edits: Some("g.edits".into()),
                timeout_ms: 2000
            }
        );
        // --timeout-ms defaults to 0 (single attempt) everywhere.
        assert_eq!(
            parse_args(&args(&["edit", "a:1"])).unwrap(),
            Command::Edit {
                addr: "a:1".into(),
                file: None,
                edits: None,
                timeout_ms: 0
            }
        );
        let Command::Submit { timeout_ms, .. } =
            parse_args(&args(&["submit", "a:1", "--timeout-ms", "150"])).unwrap()
        else {
            panic!("expected a submit command");
        };
        assert_eq!(timeout_ms, 150);
        let Command::Top { timeout_ms, .. } =
            parse_args(&args(&["top", "a:1", "--timeout-ms", "75"])).unwrap()
        else {
            panic!("expected a top command");
        };
        assert_eq!(timeout_ms, 75);
        assert!(parse_args(&args(&["edit"])).unwrap_err().contains("addr"));
        let bad = parse_args(&args(&["edit", "a:1", "--timeout-ms", "soon"])).unwrap_err();
        assert!(bad.contains("--timeout-ms"), "{bad}");
        let bad = parse_args(&args(&["edit", "a:1", "--edits"])).unwrap_err();
        assert!(bad.contains("--edits"), "{bad}");
    }

    #[test]
    fn connect_retry_gives_up_after_the_budget() {
        // Grab a port the OS hands out, then close it: connections are
        // refused from then on.
        let dead = {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
            listener.local_addr().unwrap().to_string()
        };
        let fail = |timeout_ms: u64| match connect_with_retry(&dead, timeout_ms) {
            Err(e) => e,
            Ok(_) => panic!("connecting to a closed port must fail"),
        };
        // Zero budget: the single-attempt error, verbatim.
        let plain = fail(0);
        assert!(!plain.contains("within"), "{plain}");
        // A real budget: retries happen (elapsed >= budget) and the
        // error names the address and the budget.
        let start = std::time::Instant::now();
        let err = fail(80);
        assert!(start.elapsed().as_millis() >= 80, "{err}");
        assert!(err.contains(&dead), "{err}");
        assert!(err.contains("within 80ms"), "{err}");
    }

    #[test]
    fn connect_retry_reaches_a_daemon_that_starts_late() {
        // Reserve a port, release it, and bring the scripted daemon up
        // on it only after a delay — the retry loop must bridge the
        // gap where a single attempt would fail.
        let addr = {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
            listener.local_addr().unwrap().to_string()
        };
        let late_addr = addr.clone();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(60));
            let listener = std::net::TcpListener::bind(&late_addr).expect("rebind");
            let _ = listener.accept();
        });
        assert!(Client::connect(&addr).is_err(), "port must start closed");
        let client = connect_with_retry(&addr, 5_000);
        assert!(client.is_ok(), "{:?}", client.as_ref().err());
        drop(client);
        handle.join().unwrap();
    }

    #[test]
    fn end_to_end_edit_against_a_live_daemon() {
        let path = write_fig2();
        let file = path.to_string_lossy().into_owned();
        let edits_path = path.with_extension("edits");
        std::fs::write(&edits_path, "# slow A down\nset-rate A B 40 10\n").unwrap();
        let edits = edits_path.to_string_lossy().into_owned();
        let server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
        let addr = server.local_addr().to_string();
        let edit = |file: Option<String>, edits: Option<String>| {
            execute(&Command::Edit {
                addr: addr.clone(),
                file,
                edits,
                timeout_ms: 0,
            })
        };
        let (out, code) = edit(Some(file.clone()), Some(edits.clone())).unwrap();
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("\"status\":\"ok\""), "{out}");
        assert!(out.contains("\"kind\":\"edit_report\""), "{out}");
        assert!(out.contains("\"edits_applied\":1"), "{out}");
        // The identical request is served from the result cache with
        // byte-identical payload bytes.
        let (again, code) = edit(Some(file.clone()), Some(edits.clone())).unwrap();
        assert_eq!(code, 0, "{again}");
        assert!(again.contains("\"cached\":true"), "{again}");
        // A bad script is a domain failure: error envelope, exit 1,
        // attributed to the edits input.
        let bad_path = path.with_extension("bad.edits");
        std::fs::write(&bad_path, "frobnicate A B\n").unwrap();
        let (err, code) = edit(
            Some(file.clone()),
            Some(bad_path.to_string_lossy().into_owned()),
        )
        .unwrap();
        assert_eq!(code, 1, "{err}");
        assert!(err.contains("\"input\":\"edits\""), "{err}");
        // Missing inputs are usage errors (exit 2 in main).
        assert!(edit(None, Some(edits.clone())).is_err());
        assert!(edit(Some(file), None).is_err());
        // `top` surfaces the incremental columns fed by the edit.
        let mut captured = String::new();
        let frames = top_frames(&addr, 1, 1, 0, &mut |frame: &str| captured.push_str(frame))
            .expect("top frame");
        assert_eq!(frames, 1);
        assert!(captured.contains("edits 0 delta / 1 cold"), "{captured}");
        assert!(captured.contains("sessions 1"), "{captured}");
        server.shutdown();
        server.wait();
        let _ = std::fs::remove_file(edits_path);
        let _ = std::fs::remove_file(bad_path);
    }

    #[test]
    fn parse_modes_command() {
        assert_eq!(
            parse_args(&args(&["modes", "g.sdfm"])).unwrap(),
            Command::Modes {
                file: "g.sdfm".into(),
                report: ReportFormat::Text
            }
        );
        assert_eq!(
            parse_args(&args(&["modes", "g.sdfm", "--report", "json"])).unwrap(),
            Command::Modes {
                file: "g.sdfm".into(),
                report: ReportFormat::Json
            }
        );
        assert!(parse_args(&args(&["modes"])).is_err());
        assert!(parse_args(&args(&["modes", "g.sdfm", "--count", "3"])).is_err());
        let parsed = parse_args(&args(&["submit", "a:1", "--kind", "modes"])).unwrap();
        let Command::Submit { kind, .. } = parsed else {
            panic!("expected a submit command");
        };
        assert_eq!(kind, SubmitKind::Modes);
    }

    fn write_mode_graph() -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("sdfmem-cli-tests");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join(format!("toy-{}.sdfm", std::process::id()));
        // The registered modem acquisition/tracking scenario graph
        // (examples/graphs/modem_acq_track.sdfm).
        let text = "modegraph modem_acq_track\n\
                    persistent sync demod\n\
                    mode acquisition\n\
                    edge src agc 2 1\n\
                    edge agc sync 2 1\n\
                    edge sync demod 1 2 delay 2\n\
                    edge demod sink 2 1\n\
                    mode tracking\n\
                    edge src agc 2 1\n\
                    edge agc eq 1 1\n\
                    edge eq demod 1 1\n\
                    edge agc sync 2 1\n\
                    edge sync demod 1 2 delay 2\n\
                    edge demod sink 1 2\n";
        std::fs::write(&path, text).expect("write temp mode graph");
        path
    }

    #[test]
    fn end_to_end_modes() {
        let path = write_mode_graph();
        let file = path.to_string_lossy().into_owned();
        let (text, code) = execute(&Command::Modes {
            file: file.clone(),
            report: ReportFormat::Text,
        })
        .unwrap();
        assert_eq!(code, 0, "{text}");
        assert!(
            text.contains("modegraph modem_acq_track: 2 modes"),
            "{text}"
        );
        assert!(text.contains("mode acquisition:"), "{text}");
        assert!(text.contains("mode tracking:"), "{text}");
        assert!(text.contains("persistent buffers"), "{text}");
        assert!(text.contains("merged pool:"), "{text}");
        assert!(text.contains("[ok]"), "{text}");
        assert!(text.contains("transitions: oracle clean"), "{text}");
        // The JSON form is the mode_report document and carries the
        // per-mode plans plus the transition-oracle verdict.
        let (json_out, code) = execute(&Command::Modes {
            file,
            report: ReportFormat::Json,
        })
        .unwrap();
        assert_eq!(code, 0, "{json_out}");
        let doc = sdf_trace::json::parse(json_out.trim()).expect("valid JSON");
        use sdf_trace::json::Json;
        assert_eq!(doc.get("kind").and_then(Json::as_str), Some("mode_report"));
        assert_eq!(doc.get("gate_ok").and_then(Json::as_bool), Some(true));
        assert_eq!(doc.get("clean").and_then(Json::as_bool), Some(true));
        let merged = doc.get("merged_pool_words").and_then(Json::as_num).unwrap();
        let sum = doc.get("sum_pool_words").and_then(Json::as_num).unwrap();
        assert!(merged < sum, "merged {merged} must beat separate {sum}");
    }
}
