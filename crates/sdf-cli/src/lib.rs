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
use sdf_lifetime::clique::{mcw_optimistic, mcw_pessimistic};
use sdf_lifetime::wig::ConflictGraph;
use sdf_regress::ReportFormat as DiffFormat;
use sdf_sched::{dppo, sdppo};
use sdf_service::{
    execute_request, Client, ExplainReport, MemoryModel, OrderMethod, ResponsePayload, Server,
    ServerConfig, ServiceRequest, ServiceResponse,
};
use sdfmem::engine::AnalysisBuilder;
use sdfmem::pipeline::{shared_layout, SharedLayout};
use sdfmem::sentinel::PERTURB_ENV;

/// Output format of `sdfmem analyze`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ReportFormat {
    /// Human-readable scoreboard.
    #[default]
    Text,
    /// Machine-readable [`sdfmem::engine::EngineReport::to_json`] object.
    Json,
}

/// A parsed CLI invocation; `sdfmem help` lists each command's
/// arguments and flags.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Command {
    /// `sdfmem info`.
    Info {
        /// Graph file path.
        file: String,
    },
    /// `sdfmem analyze` — sweep the engine's candidate lattice and
    /// report the scoreboard.
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
    /// `sdfmem profile` — run the engine serially under a recorder and
    /// print the span tree and counter table.
    Profile {
        /// Graph file path.
        file: String,
        /// Sweep every loop-optimizer variant, not just SDPPO.
        full: bool,
    },
    /// `sdfmem baseline` — capture a regression-sentinel baseline profile.
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
    /// `sdfmem compare` — diff two baseline profiles; exits nonzero on a
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
    /// `sdfmem bounds`.
    Bounds {
        /// Graph file path.
        file: String,
    },
    /// `sdfmem schedule`.
    Schedule {
        /// Graph file path.
        file: String,
        /// Topological-sort heuristic.
        method: OrderMethod,
        /// Buffer model.
        model: MemoryModel,
    },
    /// `sdfmem allocate`.
    Allocate {
        /// Graph file path.
        file: String,
        /// Topological-sort heuristic.
        method: OrderMethod,
    },
    /// `sdfmem codegen`.
    Codegen {
        /// Graph file path.
        file: String,
        /// Topological-sort heuristic.
        method: OrderMethod,
        /// Buffer model.
        model: MemoryModel,
        /// Emit stub actor definitions plus a `main`, producing a
        /// self-contained program (the CI smoke-test form).
        standalone: bool,
    },
    /// `sdfmem simulate` — lower the plan the matching `codegen`
    /// invocation would emit and execute it under the interpreter
    /// oracle; exit 1 on a violation.
    Simulate {
        /// Graph file path.
        file: String,
        /// Topological-sort heuristic.
        method: OrderMethod,
        /// Buffer model.
        model: MemoryModel,
        /// Output format (the JSON form embeds the executable plan).
        report: ReportFormat,
    },
    /// `sdfmem explain` — allocation provenance: per-buffer placement
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
    /// `sdfmem modes` — synthesise a multi-mode scenario graph
    /// (`.sdfm`) into one shared pool across all modes:
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
    /// `sdfmem gantt` — lifetime chart.
    Gantt {
        /// Graph file path.
        file: String,
        /// Topological-sort heuristic.
        method: OrderMethod,
    },
    /// `sdfmem dot` — Graphviz export.
    Dot {
        /// Graph file path.
        file: String,
    },
    /// `sdfmem serve` — run the `sdfmemd` daemon until a `shutdown`
    /// request arrives.
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
    /// `sdfmem submit` — submit one request to a running daemon and
    /// print the response envelope.
    Submit {
        /// Daemon address (`host:port`).
        addr: String,
        /// Which operation to submit: `analyze` (the default), `plan`,
        /// `simulate`, `explain`, `modes`, `baseline`, `stats`,
        /// `metrics`, `events` or `shutdown`.
        kind: String,
        /// Graph file (required for graph-backed kinds).
        file: Option<String>,
        /// Topological-sort heuristic (plan/simulate).
        method: OrderMethod,
        /// Buffer model (plan/simulate).
        model: MemoryModel,
        /// Analyze: evaluate candidates serially.
        serial: bool,
        /// Analyze/baseline: sweep every loop-optimizer variant.
        full: bool,
        /// Baseline: timing repeats.
        repeats: u32,
        /// Connect-retry budget in milliseconds (0 = single attempt).
        timeout_ms: u64,
    },
    /// `sdfmem edit` — submit an incremental re-synthesis request: a
    /// base graph plus an edit script. A daemon holding a live
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
    /// `sdfmem top` — poll a running daemon's `stats` op and render a
    /// live table: ops/sec, cache hit rate, queue depth,
    /// incremental-edit activity, and p50/p95/p99 latency per op.
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

/// The `help` text above the OPTIONS table.
const USAGE_HEAD: &str = "\
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
";

/// The `help` text below the OPTIONS table.
const USAGE_TAIL: &str = "
EXIT CODES:
    0  success
    1  domain failure: a graph a local command rejects (inconsistent
       rates, overflow), gated regression (compare), oracle violation
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

/// Every command `help` lists, except `help` itself.
const COMMANDS: [&str; 18] = [
    "info", "bounds", "analyze", "profile", "baseline", "compare", "schedule", "allocate",
    "codegen", "simulate", "explain", "modes", "gantt", "dot", "serve", "submit", "edit", "top",
];

/// The operations `submit --kind` names.
const SUBMIT_KINDS: [&str; 10] = [
    "analyze", "plan", "simulate", "explain", "modes", "baseline", "stats", "metrics", "events",
    "shutdown",
];

/// Every option's value, as the flags left it.
#[derive(Default)]
struct Options {
    method: OrderMethod,
    model: MemoryModel,
    report: ReportFormat,
    standalone: bool,
    serial: bool,
    full: bool,
    trace: Option<String>,
    buffer: Option<String>,
    out: Option<String>,
    repeats: u32,
    format: DiffFormat,
    gate: bool,
    allow: Vec<String>,
    workers: usize,
    cache_cap: usize,
    queue_cap: usize,
    port_file: Option<String>,
    trace_dir: Option<String>,
    kind: String,
    file: Option<String>,
    edits: Option<String>,
    timeout_ms: u64,
    interval_ms: u64,
    count: u64,
}

/// How a flag takes its value and where the value goes.
#[derive(Clone, Copy)]
enum Arg {
    /// No value: the flag's presence turns the option on.
    Switch(fn(&mut Options)),
    /// Any string: a path, a name or a list.
    Path(fn(&mut Options, &str)),
    /// A number; the setter says why it refuses one.
    Count(fn(&mut Options, &str) -> Result<(), &'static str>),
    /// One of the names `help` lists; the setter refuses any other.
    Choice(fn(&mut Options, &str) -> Option<()>),
}

/// One option: its name, how it parses, which commands take it and
/// how `help` describes it.
struct Flag {
    name: &'static str,
    /// What follows the name in `help` and in a missing-value error;
    /// empty for a switch.
    metavar: &'static str,
    arg: Arg,
    commands: &'static [&'static str],
    /// The `help` description; `\n` starts a continuation line.
    help: &'static str,
}

fn number<T: std::str::FromStr>(value: &str) -> Result<T, &'static str> {
    value.parse().map_err(|_| "is not a number")
}

/// Every option of every command, in `help` order. Parsing, the OPTIONS
/// section of `help` and the does-not-apply check all read this table.
#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    Flag { name: "--method", metavar: "apgan|rpmc",
        arg: Arg::Choice(|o, v| OrderMethod::parse(v).map(|m| o.method = m)),
        commands: &["schedule", "allocate", "gantt", "codegen", "simulate", "submit"],
        help: "topological-sort heuristic (default apgan)" },
    Flag { name: "--model", metavar: "shared|nonshared",
        arg: Arg::Choice(|o, v| MemoryModel::parse(v).map(|m| o.model = m)),
        commands: &["schedule", "codegen", "simulate", "submit"],
        help: "buffer model (default shared)" },
    Flag { name: "--report", metavar: "text|json",
        arg: Arg::Choice(|o, v| {
            o.report = match v {
                "text" => ReportFormat::Text,
                "json" => ReportFormat::Json,
                _ => return None,
            };
            Some(())
        }),
        commands: &["analyze", "simulate", "explain", "modes"],
        help: "analyze/simulate/explain/modes output format\n\
               (default text)" },
    Flag { name: "--standalone", metavar: "",
        arg: Arg::Switch(|o| o.standalone = true),
        commands: &["codegen"],
        help: "codegen: emit stub actors + main (runnable program)" },
    Flag { name: "--serial", metavar: "",
        arg: Arg::Switch(|o| o.serial = true),
        commands: &["analyze", "submit"],
        help: "analyze: evaluate candidates serially" },
    Flag { name: "--full", metavar: "",
        arg: Arg::Switch(|o| o.full = true),
        commands: &["analyze", "profile", "baseline", "submit"],
        help: "analyze/profile/baseline: sweep every loop-optimizer variant" },
    Flag { name: "--trace", metavar: "<out>",
        arg: Arg::Path(|o, v| o.trace = Some(v.into())),
        commands: &["analyze", "explain"],
        help: "analyze: write a chrome://tracing JSON trace\n\
               (JSONL when <out> ends in .jsonl);\n\
               explain: same, plus pool-occupancy counter\n\
               tracks" },
    Flag { name: "--buffer", metavar: "<name>",
        arg: Arg::Path(|o, v| o.buffer = Some(v.into())),
        commands: &["explain"],
        help: "explain: restrict the story to one buffer\n\
               (SRC->SNK actor names)" },
    Flag { name: "--out", metavar: "<path>",
        arg: Arg::Path(|o, v| o.out = Some(v.into())),
        commands: &["baseline"],
        help: "baseline: write the profile here (default stdout)" },
    Flag { name: "--repeats", metavar: "<n>",
        arg: Arg::Count(|o, v| match number(v)? {
            0 => Err("is less than 1"),
            n => {
                o.repeats = n;
                Ok(())
            }
        }),
        commands: &["baseline", "submit"],
        help: "baseline: timing repeats (default 3)" },
    Flag { name: "--format", metavar: "text|json|md",
        arg: Arg::Choice(|o, v| {
            o.format = match v {
                "text" => DiffFormat::Text,
                "json" => DiffFormat::Json,
                "md" => DiffFormat::Markdown,
                _ => return None,
            };
            Some(())
        }),
        commands: &["compare"],
        help: "compare: report format (default text)" },
    Flag { name: "--gate", metavar: "",
        arg: Arg::Switch(|o| o.gate = true),
        commands: &["compare"],
        help: "compare: gate on timing-band violations too" },
    Flag { name: "--allow", metavar: "<names>",
        arg: Arg::Path(|o, v| {
            o.allow.extend(v.split(',').filter(|n| !n.is_empty()).map(str::to_string))
        }),
        commands: &["compare"],
        help: "compare: comma-separated gate exemptions\n\
               (trailing * matches a prefix)" },
    Flag { name: "--workers", metavar: "<n>",
        arg: Arg::Count(|o, v| number(v).map(|n| o.workers = n)),
        commands: &["serve"],
        help: "serve: worker threads (default 2)" },
    Flag { name: "--cache-cap", metavar: "<n>",
        arg: Arg::Count(|o, v| number(v).map(|n| o.cache_cap = n)),
        commands: &["serve"],
        help: "serve: result-cache entries (default 256)" },
    Flag { name: "--queue-cap", metavar: "<n>",
        arg: Arg::Count(|o, v| number(v).map(|n| o.queue_cap = n)),
        commands: &["serve"],
        help: "serve: pending-job limit (default 64)" },
    Flag { name: "--port-file", metavar: "<path>",
        arg: Arg::Path(|o, v| o.port_file = Some(v.into())),
        commands: &["serve"],
        help: "serve: write the bound address here once\n\
               listening" },
    Flag { name: "--trace-dir", metavar: "<dir>",
        arg: Arg::Path(|o, v| o.trace_dir = Some(v.into())),
        commands: &["serve"],
        help: "serve: write one chrome://tracing JSON file\n\
               per completed job into this directory" },
    Flag { name: "--kind", metavar: "<op>",
        arg: Arg::Choice(|o, v| SUBMIT_KINDS.contains(&v).then(|| o.kind = v.into())),
        commands: &["submit"],
        help: "submit: analyze|plan|simulate|explain|modes|\n\
               baseline|stats|metrics|events|shutdown\n\
               (default analyze)" },
    Flag { name: "--file", metavar: "<graph>",
        arg: Arg::Path(|o, v| o.file = Some(v.into())),
        commands: &["submit", "edit"],
        help: "submit/edit: graph file" },
    Flag { name: "--edits", metavar: "<script>",
        arg: Arg::Path(|o, v| o.edits = Some(v.into())),
        commands: &["edit"],
        help: "edit: edit-script file; lines are\n\
               set-rate SRC SNK PROD CONS, set-delay SRC SNK D,\n\
               add-edge SRC SNK PROD CONS [delay D],\n\
               remove-edge SRC SNK, # comments" },
    Flag { name: "--timeout-ms", metavar: "<n>",
        arg: Arg::Count(|o, v| number(v).map(|n| o.timeout_ms = n)),
        commands: &["submit", "edit", "top"],
        help: "submit/edit/top: keep retrying the connection\n\
               with capped backoff for this long before\n\
               giving up (default 0 = single attempt)" },
    Flag { name: "--interval-ms", metavar: "<n>",
        arg: Arg::Count(|o, v| number(v).map(|n| o.interval_ms = n)),
        commands: &["top"],
        help: "top: milliseconds between polls (default 1000)" },
    Flag { name: "--count", metavar: "<n>",
        arg: Arg::Count(|o, v| number(v).map(|n| o.count = n)),
        commands: &["top"],
        help: "top: frames to render before exiting\n\
               (default 0 = until the daemon goes away)" },
];

/// Usage text shown by `help` and on argument errors; its OPTIONS
/// section is rendered from `FLAGS`.
pub fn usage() -> String {
    let mut s = USAGE_HEAD.to_string();
    for flag in FLAGS {
        // Choice lists line up under `--method`'s.
        let head = match flag.metavar {
            "" => flag.name.to_string(),
            m if m.contains('|') => format!("{:<8} {m}", flag.name),
            m => format!("{} {m}", flag.name),
        };
        let width = 25.max(head.len() + 2);
        for (i, line) in flag.help.lines().enumerate() {
            let head = if i == 0 { head.as_str() } else { "" };
            let _ = writeln!(s, "    {head:<width$}{line}");
        }
    }
    s.push_str(USAGE_TAIL);
    s
}

/// Parses command-line arguments (without the program name).
///
/// # Errors
///
/// Returns a human-readable message for unknown commands, missing files,
/// options the command does not take, or bad option values.
pub fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut it = args.iter();
    let cmd = it.next().map_or("help", String::as_str);
    if matches!(cmd, "help" | "--help" | "-h") {
        return Ok(Command::Help);
    }
    if !COMMANDS.contains(&cmd) {
        return Err(format!("unknown command `{cmd}`"));
    }
    let mut positional = |missing: String| match it.next() {
        Some(arg) if !arg.starts_with("--") => Ok(arg.clone()),
        Some(flag) => Err(format!("{missing} (found option `{flag}`)")),
        None => Err(missing),
    };
    let file = positional(if matches!(cmd, "serve" | "submit" | "edit" | "top") {
        format!("missing <addr> for `{cmd}`")
    } else {
        format!("missing graph file for `{cmd}`")
    })?;
    // `compare` is the one two-positional command: baseline, candidate.
    let candidate = if cmd == "compare" {
        positional(
            "`compare` needs two profiles: sdfmem compare <baseline> <candidate>".to_string(),
        )?
    } else {
        String::new()
    };
    // The defaults `help` documents; every other option starts at its
    // type's default.
    let mut o = Options {
        repeats: 3,
        workers: 2,
        cache_cap: 256,
        queue_cap: 64,
        kind: "analyze".to_string(),
        interval_ms: 1000,
        ..Options::default()
    };
    while let Some(name) = it.next() {
        let flag = FLAGS
            .iter()
            .find(|f| f.name == name)
            .ok_or_else(|| format!("unknown option `{name}`"))?;
        if !flag.commands.contains(&cmd) {
            return Err(format!("option `{name}` does not apply to `{cmd}`"));
        }
        let mut value = || {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("missing {name} {}", flag.metavar))
        };
        match flag.arg {
            Arg::Switch(set) => set(&mut o),
            Arg::Path(set) => set(&mut o, value()?),
            Arg::Count(set) => {
                let v = value()?;
                set(&mut o, v).map_err(|why| format!("bad {name} value: `{v}` {why}"))?;
            }
            Arg::Choice(set) => {
                let v = value()?;
                set(&mut o, v).ok_or_else(|| format!("bad {name} value: `{v}`"))?;
            }
        }
    }
    Ok(build(cmd, file, candidate, o))
}

/// The `cmd` command on its positional arguments and the options the
/// flags set.
fn build(cmd: &str, file: String, candidate: String, o: Options) -> Command {
    match cmd {
        "info" => Command::Info { file },
        "bounds" => Command::Bounds { file },
        "dot" => Command::Dot { file },
        "analyze" => Command::Analyze {
            file,
            report: o.report,
            serial: o.serial,
            full: o.full,
            trace: o.trace,
        },
        "profile" => Command::Profile { file, full: o.full },
        "baseline" => Command::Baseline {
            file,
            out: o.out,
            repeats: o.repeats,
            full: o.full,
        },
        "compare" => Command::Compare {
            baseline: file,
            candidate,
            gate: o.gate,
            format: o.format,
            allow: o.allow,
        },
        "schedule" => Command::Schedule {
            file,
            method: o.method,
            model: o.model,
        },
        "allocate" => Command::Allocate {
            file,
            method: o.method,
        },
        "gantt" => Command::Gantt {
            file,
            method: o.method,
        },
        "codegen" => Command::Codegen {
            file,
            method: o.method,
            model: o.model,
            standalone: o.standalone,
        },
        "simulate" => Command::Simulate {
            file,
            method: o.method,
            model: o.model,
            report: o.report,
        },
        "explain" => Command::Explain {
            file,
            buffer: o.buffer,
            report: o.report,
            trace: o.trace,
        },
        "modes" => Command::Modes {
            file,
            report: o.report,
        },
        "serve" => Command::Serve {
            addr: file,
            workers: o.workers,
            cache_cap: o.cache_cap,
            queue_cap: o.queue_cap,
            port_file: o.port_file,
            trace_dir: o.trace_dir,
        },
        "submit" => Command::Submit {
            addr: file,
            kind: o.kind,
            file: o.file,
            method: o.method,
            model: o.model,
            serial: o.serial,
            full: o.full,
            repeats: o.repeats,
            timeout_ms: o.timeout_ms,
        },
        "edit" => Command::Edit {
            addr: file,
            file: o.file,
            edits: o.edits,
            timeout_ms: o.timeout_ms,
        },
        "top" => Command::Top {
            addr: file,
            interval_ms: o.interval_ms,
            count: o.count,
            timeout_ms: o.timeout_ms,
        },
        _ => unreachable!("`{cmd}` is not a command"),
    }
}

/// Why a command failed: the message `main` prints and its exit code.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Failure {
    /// The human-readable message.
    pub message: String,
    /// 1 for a domain failure (an input read fine but rejected: a graph
    /// that does not parse or that the engine refuses, an error
    /// response), 2 for an I/O failure (an unreadable or unwritable
    /// file, a bind or connect error, a missing input).
    pub code: i32,
}

/// Plain-message errors are I/O failures.
impl From<String> for Failure {
    fn from(message: String) -> Self {
        Failure { message, code: 2 }
    }
}

/// A domain failure: the input was read but is rejected.
fn rejected(error: impl ToString) -> Failure {
    Failure {
        message: error.to_string(),
        code: 1,
    }
}

fn load(file: &str) -> Result<SdfGraph, Failure> {
    let text = read_input(file)?;
    sdf_core::io::parse_graph(&text).map_err(|e| rejected(format!("{file}: {e}")))
}

fn read_input(file: &str) -> Result<String, String> {
    std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))
}

/// The request `command` sends, with its input files read: the one
/// place the CLI turns options into a [`ServiceRequest`]. `submit`
/// sends what the local command of its kind (`codegen` for `plan`)
/// would.
fn service_request(command: &Command) -> Result<ServiceRequest, String> {
    Ok(match command {
        Command::Analyze {
            file, serial, full, ..
        } => ServiceRequest::Analyze {
            graph: read_input(file)?,
            serial: *serial,
            full: *full,
        },
        Command::Baseline {
            file,
            repeats,
            full,
            ..
        } => ServiceRequest::Baseline {
            graph: read_input(file)?,
            repeats: *repeats,
            full: *full,
            perturb: std::env::var(PERTURB_ENV).ok(),
        },
        Command::Compare {
            baseline,
            candidate,
            gate,
            allow,
            ..
        } => ServiceRequest::Compare {
            baseline: read_input(baseline)?,
            candidate: read_input(candidate)?,
            gate: *gate,
            allow: allow.clone(),
        },
        Command::Codegen {
            file,
            method,
            model,
            ..
        } => ServiceRequest::Plan {
            graph: read_input(file)?,
            method: *method,
            model: *model,
        },
        Command::Simulate {
            file,
            method,
            model,
            ..
        } => ServiceRequest::Simulate {
            graph: read_input(file)?,
            method: *method,
            model: *model,
        },
        Command::Explain { file, .. } => ServiceRequest::Explain {
            graph: read_input(file)?,
        },
        Command::Modes { file, .. } => ServiceRequest::Modes {
            graph: read_input(file)?,
        },
        Command::Edit { file, edits, .. } => ServiceRequest::Edit {
            graph: read_input(file.as_deref().ok_or(
                "`edit` needs a base graph: sdfmem edit <addr> --file <graph> --edits <script>",
            )?)?,
            edits: read_input(edits.as_deref().ok_or(
                "`edit` needs an edit script: sdfmem edit <addr> --file <graph> --edits <script>",
            )?)?,
        },
        Command::Submit {
            kind,
            file,
            method,
            model,
            serial,
            full,
            repeats,
            ..
        } => {
            if let Some(request) = ServiceRequest::daemon_op(kind) {
                return Ok(request);
            }
            let local = match kind.as_str() {
                "plan" => "codegen",
                other if SUBMIT_KINDS.contains(&other) => other,
                other => return Err(format!("cannot submit `{other}`")),
            };
            let file = file
                .clone()
                .ok_or("this --kind needs a graph: sdfmem submit <addr> --file <graph>")?;
            let options = Options {
                method: *method,
                model: *model,
                serial: *serial,
                full: *full,
                repeats: *repeats,
                ..Options::default()
            };
            return service_request(&build(local, file, String::new(), options));
        }
        other => unreachable!("{other:?} sends no service request"),
    })
}

/// Unwraps a service response into its payload, or maps the typed
/// error back to the CLI's `{file}: {message}` convention using
/// `inputs` (pairs of request-member name and the file it came from):
/// a domain failure, as an error envelope is for `submit`.
fn into_payload(
    response: ServiceResponse,
    inputs: &[(&str, &str)],
) -> Result<ResponsePayload, Failure> {
    match response {
        ServiceResponse::Ok(payload) => Ok(payload),
        ServiceResponse::Rejected { message } => Err(rejected(message)),
        ServiceResponse::Err(error) => {
            let file = error
                .input
                .and_then(|name| inputs.iter().find(|(n, _)| *n == name))
                .map(|(_, file)| *file);
            Err(rejected(match file {
                Some(file) => format!("{file}: {}", error.message),
                None => error.message,
            }))
        }
    }
}

/// Executes a command, returning its stdout text.
///
/// # Errors
///
/// Returns a human-readable message on any I/O, parse or analysis error.
pub fn run(command: &Command) -> Result<String, String> {
    execute(command)
        .map(|(out, _)| out)
        .map_err(|failure| failure.message)
}

/// Executes a command, returning its stdout text and the process exit
/// code: 0 on success, 1 when `compare` found a gated regression.
///
/// # Errors
///
/// A [`Failure`] on any I/O, parse or analysis error, with the exit
/// code `main` returns for it.
pub fn execute(command: &Command) -> Result<(String, i32), Failure> {
    let mut out = String::new();
    let mut code = 0;
    match command {
        Command::Help => out.push_str(&usage()),
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
            trace,
            ..
        } => {
            let request = service_request(command)?;
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
            let builder = AnalysisBuilder::new().parallel(false).full(*full);
            let recorder = std::sync::Arc::new(sdf_trace::Recorder::new());
            let synthesis =
                sdf_trace::scoped(&recorder, || builder.run_full(&g)).map_err(rejected)?;
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
            ..
        } => {
            let ResponsePayload::Baseline { profile } = into_payload(
                execute_request(&service_request(command)?),
                &[("graph", file)],
            )?
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
            format,
            ..
        } => {
            let ResponsePayload::Compare { report } = into_payload(
                execute_request(&service_request(command)?),
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
            RepetitionsVector::compute(&g).map_err(rejected)?;
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
            let q = RepetitionsVector::compute(&g).map_err(rejected)?;
            let order = method.order(&g, &q).map_err(rejected)?;
            match model {
                MemoryModel::NonShared => {
                    let r = dppo(&g, &q, &order).map_err(rejected)?;
                    let _ = writeln!(out, "schedule: {}", r.tree.to_looped_schedule().display(&g));
                    let _ = writeln!(out, "bufmem (non-shared): {}", r.bufmem);
                }
                MemoryModel::Shared => {
                    let r = sdppo(&g, &q, &order).map_err(rejected)?;
                    let _ = writeln!(out, "schedule: {}", r.tree.to_looped_schedule().display(&g));
                    let _ = writeln!(out, "shared cost estimate: {}", r.shared_cost);
                }
            }
        }
        Command::Allocate { file, method } => {
            let g = load(file)?;
            let q = RepetitionsVector::compute(&g).map_err(rejected)?;
            let SharedLayout {
                sdppo: shared, wig, ..
            } = shared_layout(&g, &q, *method).map_err(rejected)?;
            let alloc = allocate(
                &wig,
                AllocationOrder::DurationDescending,
                PlacementPolicy::FirstFit,
            );
            validate_allocation(&wig, &alloc).map_err(rejected)?;
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
            let q = RepetitionsVector::compute(&g).map_err(rejected)?;
            let SharedLayout {
                sdppo: shared,
                tree,
                wig,
            } = shared_layout(&g, &q, *method).map_err(rejected)?;
            let _ = writeln!(
                out,
                "schedule: {}\n",
                shared.tree.to_looped_schedule().display(&g)
            );
            out.push_str(&sdf_lifetime::gantt::render_gantt(&g, &tree, &wig, 96));
        }
        Command::Codegen {
            file, standalone, ..
        } => {
            let ResponsePayload::Plan { plan } = into_payload(
                execute_request(&service_request(command)?),
                &[("graph", file)],
            )?
            else {
                unreachable!("plan request produced a foreign payload");
            };
            out.push_str(&if *standalone {
                emit_standalone_c(&plan)
            } else {
                emit_c(&plan)
            });
        }
        Command::Simulate { file, report, .. } => {
            let payload = into_payload(
                execute_request(&service_request(command)?),
                &[("graph", file)],
            )?;
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
            addr, timeout_ms, ..
        }
        | Command::Edit {
            addr, timeout_ms, ..
        } => {
            let request = service_request(command)?;
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
            let request = service_request(command)?;
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
            let payload = into_payload(
                execute_request(&service_request(command)?),
                &[("graph", file)],
            )?;
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
                method: OrderMethod::Rpmc,
                model: MemoryModel::NonShared
            }
        );
        assert_eq!(
            parse_args(&args(&["codegen", "g.sdf", "--model", "shared"])).unwrap(),
            Command::Codegen {
                file: "g.sdf".into(),
                method: OrderMethod::Apgan,
                model: MemoryModel::Shared,
                standalone: false
            }
        );
        assert_eq!(
            parse_args(&args(&["codegen", "g.sdf", "--standalone"])).unwrap(),
            Command::Codegen {
                file: "g.sdf".into(),
                method: OrderMethod::Apgan,
                model: MemoryModel::Shared,
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
                method: OrderMethod::Apgan,
                model: MemoryModel::Shared,
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
                method: OrderMethod::Rpmc,
                model: MemoryModel::NonShared,
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
            method: OrderMethod::Apgan,
            model: MemoryModel::Shared,
        })
        .unwrap();
        assert!(s.contains("schedule:"), "{s}");
        let a = run(&Command::Allocate {
            file,
            method: OrderMethod::Apgan,
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
            method: OrderMethod::Rpmc,
            model: MemoryModel::Shared,
            standalone: false,
        })
        .unwrap();
        assert!(c.contains("float mem["), "{c}");
        assert!(c.contains("run_schedule"), "{c}");
        assert!(!c.contains("int main"), "{c}");
        let s = run(&Command::Codegen {
            file,
            method: OrderMethod::Rpmc,
            model: MemoryModel::Shared,
            standalone: true,
        })
        .unwrap();
        assert!(s.contains("int main(void)"), "{s}");
        assert!(s.contains("run_schedule();"), "{s}");
    }

    #[test]
    fn end_to_end_simulate_text_is_clean() {
        let path = write_fig2();
        for model in [MemoryModel::Shared, MemoryModel::NonShared] {
            let (out, code) = execute(&Command::Simulate {
                file: path.to_string_lossy().into_owned(),
                method: OrderMethod::Apgan,
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
            method: OrderMethod::Apgan,
            model: MemoryModel::Shared,
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
            method: OrderMethod::Apgan,
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
                method: OrderMethod::Rpmc
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
        // Unreadable and malformed inputs are errors, not panics: an
        // unreadable file is an I/O failure (exit 2), a foreign document
        // a domain failure (exit 1).
        let missing = compare(std::path::Path::new("/nonexistent.json")).unwrap_err();
        assert!(missing.message.contains("cannot read"), "{missing:?}");
        assert_eq!(missing.code, 2);
        let garbage = dir.join(format!("garbage-{}.json", std::process::id()));
        std::fs::write(&garbage, "{\"schema_version\":1}").unwrap();
        let foreign = compare(&garbage).unwrap_err();
        assert!(foreign.message.contains("schema_version"), "{foreign:?}");
        assert_eq!(foreign.code, 1);
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
                kind: "analyze".to_string(),
                file: Some("g.sdf".into()),
                method: OrderMethod::Apgan,
                model: MemoryModel::Shared,
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
                kind: "simulate".to_string(),
                file: Some("g.sdf".into()),
                method: OrderMethod::Rpmc,
                model: MemoryModel::NonShared,
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
                kind: "shutdown".to_string(),
                file: None,
                method: OrderMethod::Apgan,
                model: MemoryModel::Shared,
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
            assert_eq!(parsed, kind);
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
        assert_eq!(kind, "explain");
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
    fn a_flag_in_a_positional_slot_is_a_usage_error() {
        let cases: &[(&[&str], &str)] = &[
            (&["info", "--method"], "missing graph file"),
            (&["analyze", "--full", "g.sdf"], "missing graph file"),
            (&["serve", "--workers", "2"], "missing <addr>"),
            (&["submit", "--kind", "stats"], "missing <addr>"),
            (&["compare", "a.json", "--gate"], "needs two profiles"),
        ];
        for (argv, message) in cases {
            let err = parse_args(&args(argv)).unwrap_err();
            assert!(err.contains(message), "{argv:?} -> {err}");
            assert!(
                err.contains(argv[1..].iter().find(|a| a.starts_with("--")).unwrap()),
                "{argv:?} -> {err}"
            );
        }
    }

    #[test]
    fn flag_table_keeps_the_documented_surface() {
        // Which command takes which flag, as the contract documents it.
        let accepted: &[(&str, &[&str])] = &[
            ("info", &[]),
            ("bounds", &[]),
            ("dot", &[]),
            ("analyze", &["--report", "--serial", "--full", "--trace"]),
            ("profile", &["--full"]),
            ("baseline", &["--out", "--repeats", "--full"]),
            ("compare", &["--gate", "--format", "--allow"]),
            ("schedule", &["--method", "--model"]),
            ("allocate", &["--method"]),
            ("gantt", &["--method"]),
            ("codegen", &["--method", "--model", "--standalone"]),
            ("simulate", &["--method", "--model", "--report"]),
            ("explain", &["--buffer", "--report", "--trace"]),
            ("modes", &["--report"]),
            (
                "serve",
                &[
                    "--workers",
                    "--cache-cap",
                    "--queue-cap",
                    "--port-file",
                    "--trace-dir",
                ],
            ),
            (
                "submit",
                &[
                    "--kind",
                    "--file",
                    "--method",
                    "--model",
                    "--serial",
                    "--full",
                    "--repeats",
                    "--timeout-ms",
                ],
            ),
            ("edit", &["--file", "--edits", "--timeout-ms"]),
            ("top", &["--interval-ms", "--count", "--timeout-ms"]),
        ];
        assert_eq!(FLAGS.len(), 24);
        for (cmd, flags) in accepted {
            assert!(COMMANDS.contains(cmd), "{cmd}");
            for flag in FLAGS {
                assert_eq!(
                    flag.commands.contains(cmd),
                    flags.contains(&flag.name),
                    "{cmd} {}",
                    flag.name
                );
            }
        }
        for flag in FLAGS {
            assert_eq!(FLAGS.iter().filter(|f| f.name == flag.name).count(), 1);
            for cmd in flag.commands {
                assert!(accepted.iter().any(|(name, _)| name == cmd), "{cmd}");
            }
        }
    }

    #[test]
    fn submit_sends_the_request_its_local_command_would() {
        let file = write_fig2().to_string_lossy().into_owned();
        let submit = |kind: &str| Command::Submit {
            addr: "a:1".into(),
            kind: kind.into(),
            file: Some(file.clone()),
            method: OrderMethod::Rpmc,
            model: MemoryModel::NonShared,
            serial: true,
            full: true,
            repeats: 5,
            timeout_ms: 0,
        };
        let (method, model, report) = (
            OrderMethod::Rpmc,
            MemoryModel::NonShared,
            ReportFormat::Json,
        );
        let local = |kind: &str| match kind {
            "analyze" => Command::Analyze {
                file: file.clone(),
                report,
                serial: true,
                full: true,
                trace: None,
            },
            "plan" => Command::Codegen {
                file: file.clone(),
                method,
                model,
                standalone: true,
            },
            "simulate" => Command::Simulate {
                file: file.clone(),
                method,
                model,
                report,
            },
            "explain" => Command::Explain {
                file: file.clone(),
                buffer: None,
                report,
                trace: None,
            },
            "modes" => Command::Modes {
                file: file.clone(),
                report,
            },
            "baseline" => Command::Baseline {
                file: file.clone(),
                out: None,
                repeats: 5,
                full: true,
            },
            other => panic!("{other} has no local command"),
        };
        for kind in [
            "analyze", "plan", "simulate", "explain", "modes", "baseline",
        ] {
            assert_eq!(
                service_request(&submit(kind)).unwrap(),
                service_request(&local(kind)).unwrap(),
                "{kind}"
            );
        }
        for (kind, request) in [
            ("stats", ServiceRequest::Stats),
            ("metrics", ServiceRequest::Metrics),
            ("events", ServiceRequest::Events),
            ("shutdown", ServiceRequest::Shutdown),
        ] {
            assert_eq!(service_request(&submit(kind)).unwrap(), request);
        }
        for kind in ["edit", "compare", "serve"] {
            let err = service_request(&submit(kind)).unwrap_err();
            assert!(err.contains(kind), "{err}");
        }
    }

    #[test]
    fn end_to_end_serve_and_submit() {
        let path = write_fig2();
        let file = path.to_string_lossy().into_owned();
        // A private daemon on an ephemeral port.
        let server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
        let addr = server.local_addr().to_string();
        let submit = |kind: &str, file: Option<String>| {
            execute(&Command::Submit {
                addr: addr.clone(),
                kind: kind.to_string(),
                file,
                method: OrderMethod::Apgan,
                model: MemoryModel::Shared,
                serial: false,
                full: false,
                repeats: 2,
                timeout_ms: 0,
            })
        };
        // First analyze computes, the repeat is served from cache —
        // with byte-identical payload bytes inside the envelope.
        let (first, code) = submit("analyze", Some(file.clone())).unwrap();
        assert_eq!(code, 0, "{first}");
        assert!(first.contains("\"status\":\"ok\""), "{first}");
        assert!(first.contains("\"cached\":false"), "{first}");
        let (second, code) = submit("analyze", Some(file.clone())).unwrap();
        assert_eq!(code, 0, "{second}");
        assert!(second.contains("\"cached\":true"), "{second}");
        let payload_of = |line: &str| {
            let start = line.find(",\"payload\":").expect("payload member") + 11;
            line[start..line.trim_end().len() - 1].to_string()
        };
        assert_eq!(payload_of(&first), payload_of(&second));
        // A simulate submission exits 0 only when the oracle is clean.
        let (sim, code) = submit("simulate", Some(file.clone())).unwrap();
        assert_eq!(code, 0, "{sim}");
        assert!(sim.contains("\"clean\":true"), "{sim}");
        // A broken graph is a domain failure: error envelope, exit 1.
        let broken = path.with_extension("broken.sdf");
        std::fs::write(&broken, "graph broken\nedge A\n").unwrap();
        let (err, code) = submit("analyze", Some(broken.to_string_lossy().into_owned())).unwrap();
        assert_eq!(code, 1, "{err}");
        assert!(err.contains("\"status\":\"error\""), "{err}");
        assert!(err.contains("parse_error"), "{err}");
        // Stats reports the daemon's counters plus latency histogram
        // summaries; metrics exposes the same instruments as
        // Prometheus-style text; events drains the flight recorder.
        let (stats, code) = submit("stats", None).unwrap();
        assert_eq!(code, 0, "{stats}");
        assert!(stats.contains("service.cache.hits"), "{stats}");
        assert!(stats.contains("\"histograms\""), "{stats}");
        assert!(stats.contains("service.op.analyze.latency"), "{stats}");
        let (metrics, code) = submit("metrics", None).unwrap();
        assert_eq!(code, 0, "{metrics}");
        assert!(
            metrics.contains("\"kind\":\"service_metrics\""),
            "{metrics}"
        );
        assert!(
            metrics.contains("service_op_analyze_latency_bucket"),
            "{metrics}"
        );
        let (events, code) = submit("events", None).unwrap();
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
        let (bye, code) = submit("shutdown", None).unwrap();
        assert_eq!(code, 0, "{bye}");
        server.wait();
        // The daemon is gone: connecting now is a transport error
        // (exit 2 in main).
        let refused = submit("stats", None);
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
        assert_eq!(kind, "modes");
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
