//! The unified Request/Response API.
//!
//! Every way of asking the toolkit a question — the `sdfmem` CLI
//! subcommands and the `sdfmemd` daemon's wire protocol — goes through
//! the same two types: a [`ServiceRequest`] names the operation and
//! its options, [`execute_request`] runs it against the engine, and
//! the resulting [`ServiceResponse`] owns the typed result.  One API,
//! two transports.
//!
//! On the wire both directions are single-line JSON documents under
//! the standard envelope (`kind` + `schema_version` first).  Response
//! envelopes always place the `payload` member **last**, so a client
//! can lift the embedded result document out as a verbatim byte range
//! without a round-tripping JSON serializer — byte identity between
//! cached and fresh results is part of the service contract.
//!
//! Requests that embed a graph are *content-addressed*: the graph text
//! is canonicalised by parsing and re-printing it (normalising
//! whitespace, comments and `actor` declarations while preserving the
//! author's actor order — reordering actors can legitimately change
//! heuristic tie-breaks, so order is semantic here), and the
//! [`canonical string`](ServiceRequest::canonical_string) prepends the
//! operation and every option that affects the result.

use std::borrow::Cow;
use std::time::Instant;

pub use sdf_codegen::MemoryModel;
/// Topological-sort heuristic selector shared by plan-shaped requests:
/// the engine's [`Heuristic`](sdfmem::engine::Heuristic) under its wire
/// name.
pub use sdfmem::engine::Heuristic as OrderMethod;

use sdf_codegen::{execute_plan, ExecReport, ExecutablePlan};
use sdf_core::graph::SdfGraph;
use sdf_core::repetitions::RepetitionsVector;
use sdf_core::SdfError;
use sdf_regress::{diff, DiffOptions, Profile, RegressionReport, ReportFormat as DiffFormat};
use sdf_trace::json::{self, Json, Writer};
use sdf_trace::{CacheStatus, FlightRecord, Histogram, StageSpan};
use sdfmem::engine::{AnalysisBuilder, StageTimings, Synthesis};
use sdfmem::incremental::{apply_edits, dirty_edges, EditScript};
use sdfmem::modes::{synthesize_modes, ModeSynthesis};
use sdfmem::pipeline::{shared_layout, Analysis};
use sdfmem::sentinel::{capture_profile, CaptureOptions};

use crate::explain::ExplainReport;
use crate::hash::fingerprint;

/// Machine-readable failure class of a [`ServiceError`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request envelope itself is malformed or names an unknown or
    /// inapplicable operation.
    BadRequest,
    /// An embedded input document (graph or profile) does not parse.
    ParseError,
    /// The engine rejected the graph (inconsistency, deadlock, …) or
    /// failed while executing the operation.
    EngineError,
    /// The daemon is shutting down or the job queue dropped the job.
    Unavailable,
    /// The job panicked; the daemon contained the panic and its worker
    /// keeps serving.
    Internal,
}

impl ErrorCode {
    /// The wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::ParseError => "parse_error",
            ErrorCode::EngineError => "engine_error",
            ErrorCode::Unavailable => "unavailable",
            ErrorCode::Internal => "internal",
        }
    }
}

/// A typed failure: which class, which input (when one is at fault)
/// and a human-readable message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServiceError {
    /// Failure class.
    pub code: ErrorCode,
    /// The request member at fault (`"graph"`, `"baseline"`,
    /// `"candidate"`), when the failure is attributable to one.
    pub input: Option<&'static str>,
    /// Human-readable detail.
    pub message: String,
}

impl ServiceError {
    pub(crate) fn bad_request(message: impl Into<String>) -> ServiceError {
        ServiceError {
            code: ErrorCode::BadRequest,
            input: None,
            message: message.into(),
        }
    }

    fn parse(input: &'static str, message: impl Into<String>) -> ServiceError {
        ServiceError {
            code: ErrorCode::ParseError,
            input: Some(input),
            message: message.into(),
        }
    }

    pub(crate) fn engine(message: impl Into<String>) -> ServiceError {
        ServiceError {
            code: ErrorCode::EngineError,
            input: None,
            message: message.into(),
        }
    }
}

/// One operation against the synthesis engine.
///
/// The first eight variants are engine operations (the CLI's
/// `analyze`, `codegen`/plan, `simulate`, `explain`, `edit`, `modes`,
/// `baseline` and `compare` in request form); the last four, `Stats`,
/// `Metrics`, `Events` and `Shutdown`, are daemon-only operations and
/// are rejected by the in-process backend.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServiceRequest {
    /// Sweep the candidate lattice and return the engine report.
    Analyze {
        /// Graph text in the [`sdf_core::io`] format.
        graph: String,
        /// Evaluate candidates serially instead of in parallel.
        serial: bool,
        /// Sweep every loop-optimizer variant, not just SDPPO.
        full: bool,
    },
    /// Lower the graph to an [`ExecutablePlan`].
    Plan {
        /// Graph text.
        graph: String,
        /// Topological-sort heuristic.
        method: OrderMethod,
        /// Buffer model.
        model: MemoryModel,
    },
    /// Lower the graph and execute the plan under the interpreter
    /// oracle.
    Simulate {
        /// Graph text.
        graph: String,
        /// Topological-sort heuristic.
        method: OrderMethod,
        /// Buffer model.
        model: MemoryModel,
    },
    /// Build the allocation-provenance report for the default shared
    /// lowering (the `allocation_explain` document).
    Explain {
        /// Graph text.
        graph: String,
    },
    /// Re-synthesise an edited graph: a base graph plus a textual edit
    /// script ([`EditScript`] lines). The script is applied to the base
    /// and the engine runs on the edited graph, so the payload is a
    /// deterministic function of the request and `edit` is cacheable.
    Edit {
        /// Base graph text.
        graph: String,
        /// Edit script text (`set-rate`/`set-delay`/`add-edge`/
        /// `remove-edge` lines).
        edits: String,
    },
    /// Synthesise a multi-mode scenario graph into one shared pool
    /// (the `mode_report` document): per-mode plans on the candidate
    /// lattice, merged cross-mode allocation, persistent-buffer table
    /// and the transition oracle's verdict. Deterministic, so
    /// cacheable.
    Modes {
        /// Mode-graph text in the [`sdf_core::mode`] format.
        graph: String,
    },
    /// Capture a regression-sentinel baseline profile. Never cached:
    /// the profile embeds wall-clock timing statistics.
    Baseline {
        /// Graph text.
        graph: String,
        /// Timing repeats.
        repeats: u32,
        /// Sweep every loop-optimizer variant.
        full: bool,
        /// Perturbation spec (test hook).
        perturb: Option<String>,
    },
    /// Diff two baseline profiles.
    Compare {
        /// Baseline profile document text.
        baseline: String,
        /// Candidate profile document text.
        candidate: String,
        /// Also gate on timing-band violations.
        gate: bool,
        /// Gate exemptions (trailing `*` matches a prefix).
        allow: Vec<String>,
    },
    /// Daemon only: report the `service.*` counters, gauges and
    /// histogram summaries.
    Stats,
    /// Daemon only: dump every instrument as Prometheus-style text
    /// exposition.
    Metrics,
    /// Daemon only: drain the flight recorder (per-request summaries,
    /// oldest first).
    Events,
    /// Daemon only: stop accepting work and exit (responds with final
    /// stats).
    Shutdown,
}

/// How a member reaches the cache key, in key order (see
/// [`ServiceRequest::canonical_string`]).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Role {
    /// A result-affecting option: ` name=value`.
    Key,
    /// Unkeyed: `serial` (same payload either way), and every member of
    /// an op that is not cacheable.
    Ignored,
    /// The graph or mode graph, re-printed on the line after the options.
    Graph,
    ModeGraph,
    /// An edit script, re-printed after the graph under an `@name` line.
    Edits,
}

/// One service op: everything about it but its execution.
struct Op {
    name: &'static str,
    /// Whether the result cache may answer it.
    cached: bool,
    /// Whether only a running daemon serves it.
    daemon: bool,
    /// Its `service.op.<name>.latency` histogram, spelled out because
    /// the recorder keys instruments by `&'static str`.
    latency: &'static str,
    /// In wire order, as `(name, role)`; a member's kind is the variant
    /// [`fields!`] lists its field under.
    members: &'static [(&'static str, Role)],
    /// What a line naming only this op decodes to.
    default: ServiceRequest,
}

/// Every service op, declared once: the wire codec, the cache key,
/// cacheability, the latency histogram and the CLI's control ops all
/// read this table.
#[rustfmt::skip]
static OPS: [Op; 12] = {
    use MemoryModel::Shared;
    use OrderMethod::Apgan;
    use Role::*;
    const NO_TEXT: String = String::new();
    [
        Op { name: "analyze", latency: "service.op.analyze.latency", cached: true, daemon: false,
            members: &[("serial", Ignored), ("full", Key), ("graph", Graph)],
            default: ServiceRequest::Analyze { graph: NO_TEXT, serial: false, full: false } },
        Op { name: "plan", latency: "service.op.plan.latency", cached: true, daemon: false,
            members: &[("method", Key), ("model", Key), ("graph", Graph)],
            default: ServiceRequest::Plan { graph: NO_TEXT, method: Apgan, model: Shared } },
        Op { name: "simulate", latency: "service.op.simulate.latency", cached: true, daemon: false,
            members: &[("method", Key), ("model", Key), ("graph", Graph)],
            default: ServiceRequest::Simulate { graph: NO_TEXT, method: Apgan, model: Shared } },
        Op { name: "explain", latency: "service.op.explain.latency", cached: true, daemon: false,
            members: &[("graph", Graph)], default: ServiceRequest::Explain { graph: NO_TEXT } },
        Op { name: "edit", latency: "service.op.edit.latency", cached: true, daemon: false,
            members: &[("edits", Edits), ("graph", Graph)],
            default: ServiceRequest::Edit { graph: NO_TEXT, edits: NO_TEXT } },
        Op { name: "modes", latency: "service.op.modes.latency", cached: true, daemon: false,
            members: &[("graph", ModeGraph)], default: ServiceRequest::Modes { graph: NO_TEXT } },
        Op { name: "baseline", latency: "service.op.baseline.latency", cached: false, daemon: false,
            members: &[("repeats", Ignored), ("full", Ignored), ("perturb", Ignored),
                ("graph", Ignored)],
            default: ServiceRequest::Baseline {
                graph: NO_TEXT, repeats: 3, full: false, perturb: None } },
        Op { name: "compare", latency: "service.op.compare.latency", cached: false, daemon: false,
            members: &[("gate", Ignored), ("allow", Ignored), ("baseline", Ignored),
                ("candidate", Ignored)],
            default: ServiceRequest::Compare {
                baseline: NO_TEXT, candidate: NO_TEXT, gate: false, allow: Vec::new() } },
        Op { name: "stats", latency: "service.op.stats.latency", cached: false, daemon: true,
            members: &[], default: ServiceRequest::Stats },
        Op { name: "metrics", latency: "service.op.metrics.latency", cached: false, daemon: true,
            members: &[], default: ServiceRequest::Metrics },
        Op { name: "events", latency: "service.op.events.latency", cached: false, daemon: true,
            members: &[], default: ServiceRequest::Events },
        Op { name: "shutdown", latency: "service.op.shutdown.latency", cached: false, daemon: true,
            members: &[], default: ServiceRequest::Shutdown },
    ]
};

/// Lists a request's fields in wire order, each under its kind's
/// variant of `$kind`: [`Value`] to read a borrowed request, [`Slot`]
/// to fill a mutably borrowed one. The one per-op listing.
#[rustfmt::skip]
macro_rules! fields {
    ($request:expr, $kind:ident) => {{
        use $kind::*;
        match $request {
            ServiceRequest::Analyze { graph, serial, full } =>
                vec![Bool(serial), Bool(full), Text(graph)],
            ServiceRequest::Plan { graph, method, model }
            | ServiceRequest::Simulate { graph, method, model } =>
                vec![Method(method), Model(model), Text(graph)],
            ServiceRequest::Explain { graph } | ServiceRequest::Modes { graph } =>
                vec![Text(graph)],
            ServiceRequest::Edit { graph, edits } => vec![Text(edits), Text(graph)],
            ServiceRequest::Baseline { graph, repeats, full, perturb } =>
                vec![Count(repeats), Bool(full), OptText(perturb), Text(graph)],
            ServiceRequest::Compare { baseline, candidate, gate, allow } =>
                vec![Bool(gate), TextList(allow), Text(baseline), Text(candidate)],
            ServiceRequest::Stats | ServiceRequest::Metrics | ServiceRequest::Events
            | ServiceRequest::Shutdown => vec![],
        }
    }};
}

/// A request field, borrowed to read; the variant is the member's kind.
enum Value<'a> {
    Text(&'a String),
    Bool(&'a bool),
    Count(&'a u32),
    Method(&'a OrderMethod),
    Model(&'a MemoryModel),
    TextList(&'a Vec<String>),
    OptText(&'a Option<String>),
}

/// A request field, borrowed to fill; the variants mirror [`Value`]'s.
enum Slot<'a> {
    Text(&'a mut String),
    Bool(&'a mut bool),
    Count(&'a mut u32),
    Method(&'a mut OrderMethod),
    Model(&'a mut MemoryModel),
    TextList(&'a mut Vec<String>),
    OptText(&'a mut Option<String>),
}

impl Value<'_> {
    /// The field's text: its wire string, or a keyed option's `value`.
    fn text(&self) -> Cow<'_, str> {
        match *self {
            Value::Text(text) | Value::OptText(Some(text)) => text.into(),
            Value::OptText(None) => "".into(),
            Value::Bool(flag) => flag.to_string().into(),
            Value::Count(n) => n.to_string().into(),
            Value::Method(method) => method.as_str().into(),
            Value::Model(model) => model.as_str().into(),
            Value::TextList(list) => list.join(",").into(),
        }
    }

    /// Writes the field as member `name` (nothing for absent optional
    /// text).
    fn write(&self, w: &mut Writer, name: &str) {
        match *self {
            Value::Bool(_) | Value::Count(_) => w.raw(name, &self.text()),
            Value::TextList(list) => w.array(name, |w| {
                for text in list {
                    w.item_str(text);
                }
            }),
            Value::OptText(None) => w,
            _ => w.str(name, &self.text()),
        };
    }
}

impl Slot<'_> {
    /// Fills the field from member `name` of `doc`. An absent member
    /// keeps its default, except required text; a present member of
    /// the wrong JSON type is a bad request, never a default.
    fn fill(self, doc: &Json, name: &str) -> Result<(), ServiceError> {
        let bad = ServiceError::bad_request;
        let Some(value) = doc.get(name) else {
            return match self {
                Slot::Text(_) => Err(bad(format!("missing \"{name}\" text"))),
                _ => Ok(()),
            };
        };
        let wrong = |kind: &str| bad(format!("\"{name}\" must be {kind}"));
        let text = || value.as_str().ok_or_else(|| wrong("a string"));
        let unknown = |text: &str| bad(format!("bad {name} \"{text}\""));
        match self {
            Slot::Text(field) => *field = text()?.to_string(),
            Slot::OptText(field) => *field = Some(text()?.to_string()),
            Slot::Bool(field) => *field = value.as_bool().ok_or_else(|| wrong("a boolean"))?,
            Slot::Count(field) => {
                let n = value.as_num().ok_or_else(|| wrong("a number"))?;
                if !(n >= 1.0 && n.fract() == 0.0 && n <= f64::from(u32::MAX)) {
                    return Err(bad(format!("bad {name} {n}")));
                }
                *field = n as u32;
            }
            Slot::Method(field) => {
                let text = text()?;
                *field = OrderMethod::parse(text).ok_or_else(|| unknown(text))?;
            }
            Slot::Model(field) => {
                let text = text()?;
                *field = MemoryModel::parse(text).ok_or_else(|| unknown(text))?;
            }
            Slot::TextList(field) => {
                let entries = value.as_array().ok_or_else(|| wrong("an array"))?;
                *field = entries
                    .iter()
                    .map(|entry| entry.as_str().map(str::to_string))
                    .collect::<Option<_>>()
                    .ok_or_else(|| bad(format!("\"{name}\" entries must be strings")))?;
            }
        }
        Ok(())
    }
}

impl ServiceRequest {
    /// This request's entry in [`OPS`]: the one whose default is the
    /// same variant.
    fn spec(&self) -> &'static Op {
        let variant = std::mem::discriminant(self);
        OPS.iter()
            .find(|op| std::mem::discriminant(&op.default) == variant)
            .expect("OPS declares every request variant")
    }

    /// The members in wire order, as `(name, role, value)`.
    fn members(&self) -> impl Iterator<Item = (&'static str, Role, Value<'_>)> {
        let fields: Vec<Value<'_>> = fields!(self, Value);
        let names = self.spec().members.iter();
        names
            .zip(fields)
            .map(|(&(name, role), value)| (name, role, value))
    }

    /// The wire name of the operation.
    pub fn op(&self) -> &'static str {
        self.spec().name
    }

    /// Whether results of this request may be served from the cache:
    /// true for the deterministic ops. `baseline` embeds timing
    /// statistics and `compare` is cheap post-processing.
    pub fn cacheable(&self) -> bool {
        self.spec().cached
    }

    /// The `service.op.<op>.latency` histogram of this request.
    pub(crate) fn latency_histogram(&self) -> &'static str {
        self.spec().latency
    }

    /// The daemon-only request named `op` (`stats`, `metrics`, `events`
    /// or `shutdown`), if it names one.
    pub fn daemon_op(op: &str) -> Option<ServiceRequest> {
        let spec = OPS.iter().find(|spec| spec.daemon && spec.name == op)?;
        Some(spec.default.clone())
    }

    /// The canonical text this request is content-addressed by: the
    /// op, ` name=value` per result-affecting option, the canonicalised
    /// graph on the next line, then every later input as an `@name`
    /// line and its canonical text (no graph line starts with `@`).
    ///
    /// `serial` is not keyed: the engine picks the same winner either
    /// way, so both forms share a slot, and the daemon runs the
    /// parallel form (see `execute_request_cached`).
    ///
    /// # Errors
    ///
    /// Fails when the op is not cacheable, or when an embedded input
    /// does not parse (the graph first — the same error the execution
    /// path would report).
    pub fn canonical_string(&self) -> Result<String, ServiceError> {
        let spec = self.spec();
        if !spec.cached {
            return Err(ServiceError::bad_request(format!(
                "`{}` requests are not content-addressable",
                spec.name
            )));
        }
        let mut members: Vec<_> = self.members().collect();
        members.sort_by_key(|&(_, role, _)| role);
        let mut key = spec.name.to_string();
        for (name, role, value) in members {
            let text = value.text();
            key += &match role {
                Role::Key => format!(" {name}={text}"),
                Role::Ignored => continue,
                Role::Graph => format!("\n{}", sdf_core::io::to_text(&parse_graph_input(&text)?)),
                Role::ModeGraph => {
                    let mode_graph = parse_mode_graph_input(&text)?;
                    format!("\n{}", sdf_core::mode::to_mode_text(&mode_graph))
                }
                Role::Edits => format!("@{name}\n{}", parse_edits_input(&text)?.to_text()),
            };
        }
        Ok(key)
    }

    /// The `(fingerprint, canonical)` cache key pair, for cacheable
    /// requests.
    ///
    /// # Errors
    ///
    /// Same as [`ServiceRequest::canonical_string`].
    pub fn cache_key(&self) -> Result<(String, String), ServiceError> {
        let canonical = self.canonical_string()?;
        Ok((fingerprint(&canonical), canonical))
    }

    /// Serializes the request as a one-line wire document.
    pub fn to_json(&self, request_id: &str) -> String {
        json::document("service_request", |w| {
            w.str("request_id", request_id).str("op", self.op());
            for (name, _, value) in self.members() {
                value.write(w, name);
            }
        })
    }

    /// Parses a wire line into `(request_id, request)`.
    ///
    /// # Errors
    ///
    /// Returns a [`ErrorCode::BadRequest`] error for anything that is
    /// not a well-formed `service_request` document of the current
    /// schema version, including a member of the wrong JSON type.
    pub fn parse(line: &str) -> Result<(String, ServiceRequest), ServiceError> {
        let doc =
            json::parse(line).map_err(|e| ServiceError::bad_request(format!("bad JSON: {e}")))?;
        let kind = doc.get("kind").and_then(Json::as_str).unwrap_or("");
        if kind != "service_request" {
            return Err(ServiceError::bad_request(format!(
                "expected kind \"service_request\", got \"{kind}\""
            )));
        }
        let version = doc.get("schema_version").and_then(Json::as_num);
        if version != Some(f64::from(sdf_trace::SCHEMA_VERSION)) {
            return Err(ServiceError::bad_request(format!(
                "unsupported schema_version {:?} (this server speaks {})",
                version,
                sdf_trace::SCHEMA_VERSION
            )));
        }
        let (mut request_id, mut op) = (None, None);
        Slot::OptText(&mut request_id).fill(&doc, "request_id")?;
        Slot::OptText(&mut op).fill(&doc, "op")?;
        let op = op.ok_or_else(|| ServiceError::bad_request("missing \"op\""))?;
        let spec = OPS
            .iter()
            .find(|spec| spec.name == op)
            .ok_or_else(|| ServiceError::bad_request(format!("unknown op \"{op}\"")))?;
        let mut request = spec.default.clone();
        let slots: Vec<Slot<'_>> = fields!(&mut request, Slot);
        for (&(name, _), slot) in spec.members.iter().zip(slots) {
            slot.fill(&doc, name)?;
        }
        Ok((request_id.unwrap_or_else(|| "-".to_string()), request))
    }
}

/// The typed result of a successful request.
pub enum ResponsePayload {
    /// `analyze`: the parsed graph (kept for text rendering) and the
    /// full synthesis.
    Analyze {
        /// The parsed input graph.
        graph: SdfGraph,
        /// Winner, candidate lattice and engine report.
        synthesis: Box<Synthesis>,
    },
    /// `plan`: the lowered executable plan.
    Plan {
        /// The plan.
        plan: Box<ExecutablePlan>,
    },
    /// `simulate`: the plan plus the oracle verdict.
    Simulate {
        /// The executed plan.
        plan: Box<ExecutablePlan>,
        /// Oracle result (`Err` carries the violation message).
        exec: Result<ExecReport, String>,
    },
    /// `explain`: the allocation-provenance report.
    Explain {
        /// The report (ledger, occupancy timeline, waste breakdown).
        report: Box<ExplainReport>,
    },
    /// `edit`: the edited graph's synthesis plus the edit delta.
    ///
    /// Every member is a deterministic function of (base graph, edit
    /// script), so this payload is cacheable.
    Edit {
        /// The edited graph.
        graph: SdfGraph,
        /// The winning analysis of the edited graph.
        analysis: Box<Analysis>,
        /// The lowered shared-model plan of the winning analysis.
        plan: Box<ExecutablePlan>,
        /// Operations the edit script applied.
        edits_applied: usize,
        /// Edited-graph edges whose record or endpoints changed from
        /// the base (positional diff, [`sdfmem::incremental::dirty_edges`]).
        dirty_edges: usize,
    },
    /// `modes`: the multi-mode synthesis (merged pool, per-mode plans,
    /// persistent table, gate, transition-oracle verdict).
    Modes {
        /// The full multi-mode synthesis.
        synthesis: Box<ModeSynthesis>,
    },
    /// `baseline`: the captured profile.
    Baseline {
        /// The profile.
        profile: Box<Profile>,
    },
    /// `compare`: the diff report.
    Compare {
        /// The regression report.
        report: Box<RegressionReport>,
    },
    /// `stats` / `shutdown`: the daemon's instruments.
    Stats {
        /// Counter values, sorted by name.
        counters: Vec<(String, u64)>,
        /// Gauge values, sorted by name.
        gauges: Vec<(String, u64)>,
        /// Histogram summaries, sorted by name.
        histograms: Vec<(String, Histogram)>,
    },
    /// `metrics`: the daemon's instruments as Prometheus-style text.
    Metrics {
        /// The full exposition document
        /// (see [`sdf_trace::expo::write_exposition`]).
        exposition: String,
    },
    /// `events`: one flight-recorder drain.
    Events {
        /// The ring's configured capacity.
        capacity: usize,
        /// Records the ring dropped since the previous drain.
        dropped: u64,
        /// The drained records, oldest first.
        records: Vec<FlightRecord>,
    },
}

impl ResponsePayload {
    /// Serializes the payload as a complete top-level document (its own
    /// `kind` + `schema_version` envelope), without a trailing newline.
    pub fn to_json(&self) -> String {
        match self {
            ResponsePayload::Analyze { synthesis, .. } => synthesis.report.to_json(),
            ResponsePayload::Plan { plan } => plan.to_json(),
            ResponsePayload::Simulate { plan, exec } => simulation_report_json(plan, exec),
            ResponsePayload::Explain { report } => report.to_json(),
            ResponsePayload::Edit {
                graph,
                analysis,
                plan,
                edits_applied,
                dirty_edges,
            } => json::document("edit_report", |w| {
                let schedule = analysis.schedule.to_looped_schedule();
                w.str("graph", graph.name())
                    .num("edits_applied", edits_applied)
                    .num("dirty_edges", dirty_edges)
                    .num("total_edges", graph.edge_count())
                    .num("nonshared_bufmem", analysis.nonshared_bufmem)
                    .num("shared_total", analysis.shared_total())
                    .str("schedule", &schedule.display(graph).to_string())
                    .raw("plan", &plan.to_json());
            }),
            ResponsePayload::Modes { synthesis } => mode_report_json(synthesis),
            ResponsePayload::Baseline { profile } => profile.to_json().trim_end().to_string(),
            ResponsePayload::Compare { report } => {
                report.render(DiffFormat::Json).trim_end().to_string()
            }
            ResponsePayload::Stats {
                counters,
                gauges,
                histograms,
            } => json::document("service_stats", |w| {
                w.counters("counters", counters)
                    .counters("gauges", gauges)
                    .histograms("histograms", histograms);
            }),
            ResponsePayload::Metrics { exposition } => json::document("service_metrics", |w| {
                w.str("exposition", exposition);
            }),
            ResponsePayload::Events {
                capacity,
                dropped,
                records,
            } => json::document("service_events", |w| {
                w.num("capacity", capacity)
                    .num("dropped", dropped)
                    .array("events", |w| {
                        for record in records {
                            w.item_object(|w| record.write(w));
                        }
                    });
            }),
        }
    }
}

/// Per-request telemetry, composed by the daemon *outside* the cached
/// payload bytes.
///
/// Cached and fresh responses share payload bytes (the byte-identity
/// contract) but each gets its own telemetry: how long the request
/// queued, how long service took, whether the cache answered, the
/// per-stage breakdown, and which `service.*` counters moved while the
/// job ran. In the response envelope it is the `telemetry` member,
/// placed *before* the final `payload` member so payload extraction by
/// byte range keeps working.
///
/// The counter deltas are exact when one job runs at a time and
/// approximate attribution under concurrency (workers share one
/// recorder); the timing fields are always request-scoped.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RequestTelemetry {
    /// Cache interaction of this request.
    pub cache: CacheStatus,
    /// Nanoseconds spent queued before a worker started (zero for
    /// cache hits and inline daemon ops).
    pub queue_wait_ns: u64,
    /// Nanoseconds of service time (execution + rendering, or cache
    /// lookup for hits).
    pub service_ns: u64,
    /// Per-stage breakdown of the service time.
    pub stages: Vec<StageSpan>,
    /// `service.*` counters that moved while the job ran, as sorted
    /// `(name, delta)` pairs.
    pub counters: Vec<(String, u64)>,
}

impl RequestTelemetry {
    /// The telemetry as a JSON object (an envelope member, not a
    /// standalone document — no `kind` header).
    pub fn to_json(&self) -> String {
        json::object(|w| self.write(w))
    }

    fn write(&self, w: &mut Writer) {
        w.str("cache", self.cache.as_str())
            .num("queue_wait_ns", self.queue_wait_ns)
            .num("service_ns", self.service_ns);
        StageSpan::write_list(w, "stages", &self.stages);
        w.counters("counters", &self.counters);
    }

    /// The matching flight-recorder entry (`seq` is assigned by the
    /// recorder; `op`/`outcome` come from the job).
    pub fn to_flight_record(&self, op: &'static str, outcome: &'static str) -> FlightRecord {
        FlightRecord {
            seq: 0,
            op,
            outcome,
            cache: self.cache,
            queue_wait_ns: self.queue_wait_ns,
            service_ns: self.service_ns,
            stages: self.stages.clone(),
        }
    }
}

/// The outcome of a request: success with a payload, backpressure
/// rejection, or a typed error.
pub enum ServiceResponse {
    /// The operation succeeded.
    Ok(ResponsePayload),
    /// The daemon's job queue was full; the request never ran.
    Rejected {
        /// Human-readable detail.
        message: String,
    },
    /// The operation failed.
    Err(ServiceError),
}

impl ServiceResponse {
    /// The wire status string.
    pub fn status(&self) -> &'static str {
        match self {
            ServiceResponse::Ok(_) => "ok",
            ServiceResponse::Rejected { .. } => "rejected",
            ServiceResponse::Err(_) => "error",
        }
    }

    /// Serializes the full response envelope (one line, newline
    /// terminated) without telemetry — the in-process transport. The
    /// `payload` member, when present, is last.
    pub fn to_json(&self, request_id: &str, cached: bool) -> String {
        self.to_json_with_telemetry(request_id, cached, None)
    }

    /// Serializes the full response envelope with an optional
    /// `telemetry` member — the daemon's wire transport. Telemetry is
    /// written *before* the payload (or error) member, keeping the
    /// payload last for byte-range extraction.
    pub fn to_json_with_telemetry(
        &self,
        request_id: &str,
        cached: bool,
        telemetry: Option<&RequestTelemetry>,
    ) -> String {
        match self {
            ServiceResponse::Ok(payload) => {
                envelope_ok(request_id, cached, telemetry, &payload.to_json())
            }
            ServiceResponse::Rejected { message } => envelope_error(
                request_id,
                "rejected",
                ErrorCode::Unavailable.as_str(),
                None,
                message,
                telemetry,
            ),
            ServiceResponse::Err(error) => envelope_error(
                request_id,
                "error",
                error.code.as_str(),
                error.input,
                &error.message,
                telemetry,
            ),
        }
    }
}

/// The response envelope: the fixed members, the optional telemetry,
/// then the result member `last` writes, and a trailing newline.
fn envelope(
    request_id: &str,
    status: &str,
    cached: bool,
    telemetry: Option<&RequestTelemetry>,
    last: impl FnOnce(&mut Writer),
) -> String {
    let mut s = json::document("service_response", |w| {
        w.str("request_id", request_id)
            .str("status", status)
            .bool("cached", cached);
        if let Some(t) = telemetry {
            w.object("telemetry", |w| t.write(w));
        }
        last(w);
    });
    s.push('\n');
    s
}

/// Wraps an already-serialized payload document into an `ok` envelope.
/// Public to the crate so the server can wrap cached payload bytes
/// without re-serializing the typed payload.
pub(crate) fn envelope_ok(
    request_id: &str,
    cached: bool,
    telemetry: Option<&RequestTelemetry>,
    payload_json: &str,
) -> String {
    envelope(request_id, "ok", cached, telemetry, |w| {
        w.raw("payload", payload_json);
    })
}

pub(crate) fn envelope_error(
    request_id: &str,
    status: &str,
    code: &str,
    input: Option<&str>,
    message: &str,
    telemetry: Option<&RequestTelemetry>,
) -> String {
    envelope(request_id, status, false, telemetry, |w| {
        w.object("error", |w| {
            w.str("code", code);
            if let Some(input) = input {
                w.str("input", input);
            }
            w.str("message", message);
        });
    })
}

/// Parses graph text, mapping failures to the service's typed error.
///
/// # Errors
///
/// [`ErrorCode::ParseError`] with `input: "graph"` — shared between
/// the CLI and daemon paths so both report byte-identical messages.
pub fn parse_graph_input(text: &str) -> Result<SdfGraph, ServiceError> {
    sdf_core::io::parse_graph(text).map_err(|e| ServiceError::parse("graph", e.to_string()))
}

/// Parses edit-script text, mapping failures to the service's typed
/// error ([`ErrorCode::ParseError`] with `input: "edits"`).
///
/// # Errors
///
/// [`ErrorCode::ParseError`] when any line fails to parse.
pub fn parse_edits_input(text: &str) -> Result<EditScript, ServiceError> {
    EditScript::parse(text).map_err(|e| ServiceError::parse("edits", e.to_string()))
}

/// Parses mode-graph text, mapping failures to the service's typed
/// error ([`ErrorCode::ParseError`] with `input: "graph"`).
///
/// # Errors
///
/// [`ErrorCode::ParseError`] when the text is not a well-formed
/// [`sdf_core::mode`] document.
pub fn parse_mode_graph_input(text: &str) -> Result<sdf_core::mode::ModeGraph, ServiceError> {
    sdf_core::mode::parse_mode_graph(text).map_err(|e| ServiceError::parse("graph", e.to_string()))
}

/// Lowers `graph` to the [`ExecutablePlan`] shared by the `plan`,
/// `simulate` and CLI `codegen` paths: the chosen heuristic order, then
/// DPPO (non-shared) or SDPPO + first-fit allocation (shared).
///
/// # Errors
///
/// [`ErrorCode::EngineError`] on consistency, scheduling or lowering
/// failures.
pub fn lower_plan(
    g: &SdfGraph,
    method: OrderMethod,
    model: MemoryModel,
) -> Result<ExecutablePlan, ServiceError> {
    use sdf_alloc::{allocate, AllocationOrder, PlacementPolicy};

    let engine = |e: SdfError| ServiceError::engine(e.to_string());
    let q = RepetitionsVector::compute(g).map_err(engine)?;
    match model {
        MemoryModel::NonShared => {
            let order = method.order(g, &q).map_err(engine)?;
            let r = sdf_sched::dppo(g, &q, &order).map_err(engine)?;
            ExecutablePlan::lower_nonshared(g, &q, &r.tree.to_looped_schedule()).map_err(engine)
        }
        MemoryModel::Shared => {
            let layout = shared_layout(g, &q, method).map_err(engine)?;
            let alloc = allocate(
                &layout.wig,
                AllocationOrder::DurationDescending,
                PlacementPolicy::FirstFit,
            );
            ExecutablePlan::lower_shared(g, &q, &layout.sdppo.tree, &layout.wig, &alloc)
                .map_err(engine)
        }
    }
}

/// The `mode_report` document (also what `sdfmem modes --report json`
/// prints): per-mode summaries and plans, the persistent-buffer table,
/// the merged-pool accounting with its gate, and the transition
/// oracle's verdict.
fn mode_report_json(synthesis: &ModeSynthesis) -> String {
    json::document("mode_report", |w| {
        w.str("graph", &synthesis.plan.graph)
            .num("token_bytes", synthesis.plan.token_bytes)
            .array("modes", |w| {
                for (summary, mode) in synthesis.summaries.iter().zip(&synthesis.plan.modes) {
                    w.item_object(|w| {
                        w.str("name", &summary.name)
                            .num("actors", summary.actors)
                            .num("edges", summary.edges)
                            .num("standalone_pool_words", summary.standalone_pool_words)
                            .num("nonshared_bufmem", summary.nonshared_bufmem)
                            .num("firings", summary.firings)
                            .raw("plan", &mode.plan.to_json());
                    });
                }
            })
            .array("persistent", |w| {
                for p in &synthesis.plan.persistent {
                    w.item_object(|w| {
                        w.str("src", &p.src)
                            .str("snk", &p.snk)
                            .num("offset", p.offset)
                            .num("size", p.size)
                            .num("delay", p.delay);
                    });
                }
            })
            .num("merged_pool_words", synthesis.merged_pool_words)
            .num("sum_pool_words", synthesis.sum_pool_words)
            .num("max_pool_words", synthesis.max_pool_words)
            .num("persistent_words", synthesis.persistent_words)
            .num("gate_bound", synthesis.gate_bound)
            .bool("gate_ok", synthesis.gate_ok)
            .fixed("savings_percent", synthesis.savings_percent(), 2)
            .bool("clean", synthesis.exec.is_ok());
        match &synthesis.exec {
            Ok(r) => {
                w.object("exec", |w| {
                    w.num("firings", r.firings)
                        .num("peak_live_words", r.peak_live_words)
                        .num("pool_words", r.pool_words)
                        .num("transitions", r.transitions)
                        .array("activations", |w| {
                            for a in &r.activations {
                                w.item_object(|w| {
                                    w.num("mode", a.mode)
                                        .num("firings", a.firings)
                                        .num("peak_live_words", a.peak_live_words);
                                });
                            }
                        });
                });
            }
            Err(e) => {
                w.str("error", e);
            }
        }
    })
}

/// The `simulation_report` document (also what `sdfmem simulate
/// --report json` prints).
fn simulation_report_json(plan: &ExecutablePlan, exec: &Result<ExecReport, String>) -> String {
    json::document("simulation_report", |w| {
        w.str("graph", &plan.graph)
            .str("model", plan.model.as_str())
            .bool("clean", exec.is_ok());
        match exec {
            Ok(r) => {
                w.object("exec", |w| {
                    w.num("firings", r.firings)
                        .num("peak_live_words", r.peak_live_words)
                        .num("peak_live_bytes", r.peak_live_bytes)
                        .num("pool_words", r.pool_words);
                });
            }
            Err(e) => {
                w.str("error", e);
            }
        }
        w.raw("plan", &plan.to_json());
    })
}

/// Measures coarse request stages directly with [`Instant`], producing
/// the [`StageSpan`] tree of [`RequestTelemetry`].
///
/// Deliberately *not* built on the global recorder: daemon workers
/// never install one (the byte-identity contract — a globally traced
/// run would bleed process-wide counters into `engine_report` payload
/// bytes), so stage timing measures its own intervals relative to the
/// start of service.
pub(crate) struct StageClock {
    epoch: Instant,
    pub(crate) stages: Vec<StageSpan>,
}

impl StageClock {
    pub(crate) fn new() -> StageClock {
        StageClock {
            epoch: Instant::now(),
            stages: Vec::new(),
        }
    }

    fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` as the named stage, recording its span.
    pub(crate) fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start_ns = self.elapsed_ns();
        let value = f();
        let dur_ns = self.elapsed_ns().saturating_sub(start_ns);
        self.stages.push(StageSpan::leaf(name, start_ns, dur_ns));
        value
    }

    /// Attaches `children` to the most recently recorded stage.
    fn attach_children(&mut self, children: Vec<StageSpan>) {
        if let Some(last) = self.stages.last_mut() {
            last.children = children;
        }
    }
}

/// The winner candidate's per-stage timings as child spans of the
/// `engine` stage, laid end to end from the stage's start. The engine
/// measured these durations itself; only the offsets are synthesized.
fn winner_stage_children(start_ns: u64, timings: &StageTimings) -> Vec<StageSpan> {
    let mut cursor = start_ns;
    let mut children = Vec::with_capacity(4);
    for (name, dur_ns) in [
        ("engine.schedule", timings.schedule_ns),
        ("engine.lifetime", timings.lifetime_ns),
        ("engine.wig", timings.wig_ns),
        ("engine.alloc", timings.alloc_ns),
    ] {
        children.push(StageSpan::leaf(name, cursor, dur_ns));
        cursor = cursor.saturating_add(dur_ns);
    }
    children
}

/// Executes a request in-process — the single backend behind both the
/// CLI subcommands and the daemon's workers.
///
/// `Stats`, `Metrics`, `Events` and `Shutdown` are daemon-side control
/// operations and return a [`ErrorCode::BadRequest`] error here.
pub fn execute_request(request: &ServiceRequest) -> ServiceResponse {
    execute_request_timed(request).0
}

/// [`execute_request`] plus the measured stage tree, for callers (the
/// daemon's workers) that compose per-request telemetry.
pub fn execute_request_timed(request: &ServiceRequest) -> (ServiceResponse, Vec<StageSpan>) {
    let mut clock = StageClock::new();
    let response = match execute_request_inner(request, &mut clock) {
        Ok(payload) => ServiceResponse::Ok(payload),
        Err(error) => ServiceResponse::Err(error),
    };
    (response, clock.stages)
}

fn execute_request_inner(
    request: &ServiceRequest,
    clock: &mut StageClock,
) -> Result<ResponsePayload, ServiceError> {
    match request {
        ServiceRequest::Analyze {
            graph,
            serial,
            full,
        } => {
            let g = clock.time("parse", || parse_graph_input(graph))?;
            let synthesis = clock.time("engine", || {
                AnalysisBuilder::new()
                    .parallel(!serial)
                    .full(*full)
                    .run_full(&g)
                    .map_err(|e| ServiceError::engine(e.to_string()))
            })?;
            // Break the engine stage down by the winner's own timings.
            let report = &synthesis.report;
            if let (Some(stage), Some(winner)) =
                (clock.stages.last(), report.candidates.get(report.winner))
            {
                let children = winner_stage_children(stage.start_ns, &winner.timings);
                clock.attach_children(children);
            }
            Ok(ResponsePayload::Analyze {
                graph: g,
                synthesis: Box::new(synthesis),
            })
        }
        ServiceRequest::Plan {
            graph,
            method,
            model,
        } => {
            let g = clock.time("parse", || parse_graph_input(graph))?;
            let plan = clock.time("lower", || lower_plan(&g, *method, *model))?;
            Ok(ResponsePayload::Plan {
                plan: Box::new(plan),
            })
        }
        ServiceRequest::Simulate {
            graph,
            method,
            model,
        } => {
            let g = clock.time("parse", || parse_graph_input(graph))?;
            let plan = clock.time("lower", || lower_plan(&g, *method, *model))?;
            let exec = clock.time("execute", || execute_plan(&plan).map_err(|e| e.to_string()));
            Ok(ResponsePayload::Simulate {
                plan: Box::new(plan),
                exec,
            })
        }
        ServiceRequest::Explain { graph } => {
            let g = clock.time("parse", || parse_graph_input(graph))?;
            let report = clock.time("explain", || ExplainReport::build(&g))?;
            Ok(ResponsePayload::Explain {
                report: Box::new(report),
            })
        }
        ServiceRequest::Edit { graph, edits } => {
            let (base, script) = clock.time("parse", || {
                let g = parse_graph_input(graph)?;
                let s = parse_edits_input(edits)?;
                Ok::<_, ServiceError>((g, s))
            })?;
            let edited = clock.time("apply", || {
                apply_edits(&base, &script).map_err(|e| ServiceError::engine(e.to_string()))
            })?;
            let analysis = clock.time("engine", || {
                AnalysisBuilder::new()
                    .run(&edited)
                    .map_err(|e| ServiceError::engine(e.to_string()))
            })?;
            let plan = analysis
                .plan(&edited)
                .map_err(|e| ServiceError::engine(e.to_string()))?;
            let dirty = dirty_edges(&base, &edited).iter().filter(|d| **d).count();
            Ok(ResponsePayload::Edit {
                graph: edited,
                analysis: Box::new(analysis),
                plan: Box::new(plan),
                edits_applied: script.ops.len(),
                dirty_edges: dirty,
            })
        }
        ServiceRequest::Modes { graph } => {
            let mg = clock.time("parse", || parse_mode_graph_input(graph))?;
            let synthesis = clock.time("engine", || {
                synthesize_modes(&mg).map_err(|e| ServiceError::engine(e.to_string()))
            })?;
            Ok(ResponsePayload::Modes {
                synthesis: Box::new(synthesis),
            })
        }
        ServiceRequest::Baseline {
            graph,
            repeats,
            full,
            perturb,
        } => {
            let g = clock.time("parse", || parse_graph_input(graph))?;
            let profile = clock.time("capture", || {
                let options = CaptureOptions {
                    repeats: *repeats,
                    full: *full,
                    perturb: perturb.clone(),
                };
                capture_profile(&g, &options).map_err(ServiceError::engine)
            })?;
            Ok(ResponsePayload::Baseline {
                profile: Box::new(profile),
            })
        }
        ServiceRequest::Compare {
            baseline,
            candidate,
            gate,
            allow,
        } => {
            let (base, cand) = clock.time("parse", || {
                let base =
                    Profile::parse(baseline).map_err(|e| ServiceError::parse("baseline", e))?;
                let cand =
                    Profile::parse(candidate).map_err(|e| ServiceError::parse("candidate", e))?;
                Ok::<_, ServiceError>((base, cand))
            })?;
            let report = clock.time("diff", || {
                let options = DiffOptions {
                    allow: allow.clone(),
                    gate_timings: *gate,
                    ..DiffOptions::default()
                };
                diff(&base, &cand, &options)
            });
            Ok(ResponsePayload::Compare {
                report: Box::new(report),
            })
        }
        ServiceRequest::Stats
        | ServiceRequest::Metrics
        | ServiceRequest::Events
        | ServiceRequest::Shutdown => Err(ServiceError::bad_request(format!(
            "`{}` is a daemon-side operation; submit it to a running sdfmemd",
            request.op()
        ))),
    }
}

/// Executes a cacheable request the way a daemon worker does: any
/// `serial` preference is dropped first, so serial and parallel
/// submissions of the same graph share one cache slot *and* one
/// payload byte-form (the engine report records `parallel`).
pub fn execute_request_cached(request: &ServiceRequest) -> ServiceResponse {
    execute_request_cached_timed(request).0
}

/// [`execute_request_cached`] plus the measured stage tree.
pub fn execute_request_cached_timed(request: &ServiceRequest) -> (ServiceResponse, Vec<StageSpan>) {
    match request {
        ServiceRequest::Analyze { graph, full, .. } => {
            execute_request_timed(&ServiceRequest::Analyze {
                graph: graph.clone(),
                serial: false,
                full: *full,
            })
        }
        other => execute_request_timed(other),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIG2: &str = "graph fig2\nedge A B 20 10\nedge B C 20 10\n";

    #[test]
    fn request_wire_round_trip() {
        let requests = [
            ServiceRequest::Analyze {
                graph: FIG2.into(),
                serial: true,
                full: true,
            },
            ServiceRequest::Plan {
                graph: FIG2.into(),
                method: OrderMethod::Rpmc,
                model: MemoryModel::NonShared,
            },
            ServiceRequest::Simulate {
                graph: FIG2.into(),
                method: OrderMethod::Apgan,
                model: MemoryModel::Shared,
            },
            ServiceRequest::Baseline {
                graph: FIG2.into(),
                repeats: 2,
                full: false,
                perturb: Some("sched.dppo.cells=+7".into()),
            },
            ServiceRequest::Compare {
                baseline: "{}".into(),
                candidate: "{}".into(),
                gate: true,
                allow: vec!["sched.*".into()],
            },
            ServiceRequest::Edit {
                graph: FIG2.into(),
                edits: "set-rate A B 40 10\nset-delay B C 3\n".into(),
            },
            ServiceRequest::Modes {
                graph: "modegraph toy\npersistent x y\nmode one\nedge x y 1 1 delay 1\n\
                        mode two\nedge x y 1 1 delay 1\nedge y c 1 3\n"
                    .into(),
            },
            ServiceRequest::Stats,
            ServiceRequest::Metrics,
            ServiceRequest::Events,
            ServiceRequest::Shutdown,
        ];
        for request in requests {
            let line = request.to_json("req-1");
            let (id, parsed) = ServiceRequest::parse(&line).expect("round trip");
            assert_eq!(id, "req-1");
            assert_eq!(parsed, request, "{line}");
        }
    }

    #[test]
    fn edit_payload_reports_the_edited_graph() {
        let request = ServiceRequest::Edit {
            graph: FIG2.into(),
            edits: "# double A's rate\nset-rate A B 40 10\n".into(),
        };
        let response = execute_request(&request);
        assert_eq!(response.status(), "ok");
        let line = response.to_json("r", false);
        let doc = json::parse(&line).expect("envelope parses");
        let payload = doc.get("payload").expect("payload");
        assert_eq!(
            payload.get("kind").and_then(Json::as_str),
            Some("edit_report")
        );
        assert_eq!(
            payload.get("edits_applied").and_then(Json::as_num),
            Some(1.0)
        );
        assert_eq!(payload.get("dirty_edges").and_then(Json::as_num), Some(1.0));
        assert_eq!(payload.get("total_edges").and_then(Json::as_num), Some(2.0));
        // The report describes the *edited* graph: A B 40 10 doubles
        // the A->B buffer versus the base's 20.
        let nonshared = payload
            .get("nonshared_bufmem")
            .and_then(Json::as_num)
            .expect("nonshared_bufmem");
        assert!(nonshared > 0.0);
        assert!(payload.get("plan").is_some(), "embedded executable plan");
        assert!(payload.get("schedule").and_then(Json::as_str).is_some());
    }

    #[test]
    fn edit_errors_are_typed_by_input() {
        let bad_script = ServiceRequest::Edit {
            graph: FIG2.into(),
            edits: "frobnicate A B\n".into(),
        };
        let ServiceResponse::Err(err) = execute_request(&bad_script) else {
            panic!("bad edit script must fail");
        };
        assert_eq!(err.code, ErrorCode::ParseError);
        assert_eq!(err.input, Some("edits"));
        let bad_target = ServiceRequest::Edit {
            graph: FIG2.into(),
            edits: "remove-edge X Y\n".into(),
        };
        let ServiceResponse::Err(err) = execute_request(&bad_target) else {
            panic!("edit addressing a nonexistent edge must fail");
        };
        assert_eq!(err.code, ErrorCode::EngineError);
        // Scripts that drive a repetitions count past u64 are engine
        // errors too, never a panic.
        for edits in [
            "set-rate A B 18446744073709551615 1\n",
            "add-edge C D 4294967296 1\nadd-edge D E 4294967296 1\nadd-edge E F 4294967296 1\n",
        ] {
            let overflowing = ServiceRequest::Edit {
                graph: FIG2.into(),
                edits: edits.into(),
            };
            let ServiceResponse::Err(err) = execute_request(&overflowing) else {
                panic!("{edits}: expected an error");
            };
            assert_eq!(err.code, ErrorCode::EngineError, "{edits}");
            assert!(err.message.contains("overflow"), "{}", err.message);
        }
    }

    #[test]
    fn edit_cache_key_separates_graph_from_script() {
        let key = |graph: &str, edits: &str| {
            ServiceRequest::Edit {
                graph: graph.into(),
                edits: edits.into(),
            }
            .cache_key()
            .expect("parses")
            .0
        };
        // Formatting of the script does not change the key...
        assert_eq!(
            key(FIG2, "set-delay A B 2\n"),
            key(FIG2, "# note\nset-delay  A  B  2\n")
        );
        // ...but different edits, or a different base, do.
        assert_ne!(
            key(FIG2, "set-delay A B 2\n"),
            key(FIG2, "set-delay A B 3\n")
        );
        let other = "graph fig2\nedge A B 20 10\nedge B C 10 10\n";
        assert_ne!(
            key(FIG2, "set-delay A B 2\n"),
            key(other, "set-delay A B 2\n")
        );
    }

    #[test]
    fn parse_rejects_foreign_documents() {
        assert!(ServiceRequest::parse("not json").is_err());
        assert!(ServiceRequest::parse("{\"kind\":\"engine_report\"}").is_err());
        let wrong_version = format!(
            "{{\"kind\":\"service_request\",\"schema_version\":{},\"op\":\"stats\"}}",
            sdf_trace::SCHEMA_VERSION + 1
        );
        assert!(ServiceRequest::parse(&wrong_version).is_err());
        let no_graph = format!(
            "{{\"kind\":\"service_request\",\"schema_version\":{},\"op\":\"analyze\"}}",
            sdf_trace::SCHEMA_VERSION
        );
        let err = ServiceRequest::parse(&no_graph).unwrap_err();
        assert_eq!(err.code, ErrorCode::BadRequest);
        assert!(err.message.contains("graph"), "{}", err.message);
    }

    #[test]
    fn canonicalisation_ignores_formatting_but_not_actor_order() {
        let spaced = "graph fig2\n\n# comment\nedge  A  B  20 10\nedge B C 20 10\n";
        let key = |text: &str| {
            ServiceRequest::Analyze {
                graph: text.into(),
                serial: false,
                full: false,
            }
            .cache_key()
            .expect("parses")
            .0
        };
        assert_eq!(key(FIG2), key(spaced));
        // Same topology declared with the actor order flipped is a
        // *different* canonical graph: order can steer tie-breaks.
        let flipped = "graph fig2\nactor C\nactor B\nactor A\nedge A B 20 10\nedge B C 20 10\n";
        assert_ne!(key(FIG2), key(flipped));
    }

    #[test]
    fn serial_and_parallel_analyze_share_a_cache_slot() {
        let key = |serial: bool| {
            ServiceRequest::Analyze {
                graph: FIG2.into(),
                serial,
                full: false,
            }
            .cache_key()
            .expect("parses")
            .0
        };
        assert_eq!(key(true), key(false));
        // ... and the cached execution path drops the serial
        // preference, so the payload a serial submission would insert
        // is structurally the payload a parallel one expects. (Full
        // byte identity across *independent* analyze runs is not
        // claimed — engine reports embed wall-clock timings; the
        // byte-identity contract is cached-vs-inserting run.)
        let serial = ServiceRequest::Analyze {
            graph: FIG2.into(),
            serial: true,
            full: false,
        };
        let payload = match execute_request_cached(&serial) {
            ServiceResponse::Ok(p) => p.to_json(),
            _ => panic!("analyze fails"),
        };
        let doc = json::parse(&payload).expect("payload parses");
        assert_eq!(doc.get("parallel").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn analyze_payload_is_a_complete_engine_report() {
        let request = ServiceRequest::Analyze {
            graph: FIG2.into(),
            serial: true,
            full: false,
        };
        let response = execute_request(&request);
        assert_eq!(response.status(), "ok");
        let line = response.to_json("r", false);
        let doc = json::parse(&line).expect("envelope parses");
        assert_eq!(
            doc.get("kind").and_then(Json::as_str),
            Some("service_response")
        );
        assert_eq!(doc.get("cached").and_then(Json::as_bool), Some(false));
        let payload = doc.get("payload").expect("payload");
        assert_eq!(
            payload.get("kind").and_then(Json::as_str),
            Some("engine_report")
        );
        assert_eq!(payload.get("graph").and_then(Json::as_str), Some("fig2"));
    }

    #[test]
    fn simulate_payload_matches_cli_shape() {
        let request = ServiceRequest::Simulate {
            graph: FIG2.into(),
            method: OrderMethod::Apgan,
            model: MemoryModel::Shared,
        };
        let ServiceResponse::Ok(payload) = execute_request(&request) else {
            panic!("simulate fails");
        };
        let doc = json::parse(&payload.to_json()).expect("payload parses");
        assert_eq!(
            doc.get("kind").and_then(Json::as_str),
            Some("simulation_report")
        );
        assert_eq!(doc.get("clean").and_then(Json::as_bool), Some(true));
        assert_eq!(
            doc.get("exec")
                .and_then(|e| e.get("firings"))
                .and_then(Json::as_num),
            Some(7.0)
        );
        assert_eq!(
            doc.get("plan")
                .and_then(|p| p.get("kind"))
                .and_then(Json::as_str),
            Some("executable_plan")
        );
    }

    #[test]
    fn bad_graph_is_a_typed_parse_error() {
        let request = ServiceRequest::Analyze {
            graph: "graph broken\nedge A".into(),
            serial: false,
            full: false,
        };
        let ServiceResponse::Err(error) = execute_request(&request) else {
            panic!("expected error");
        };
        assert_eq!(error.code, ErrorCode::ParseError);
        assert_eq!(error.input, Some("graph"));
        // The cache-key path reports the identical error.
        assert_eq!(request.cache_key().unwrap_err(), error);
    }

    #[test]
    fn control_ops_are_daemon_side_only() {
        for request in [
            ServiceRequest::Stats,
            ServiceRequest::Metrics,
            ServiceRequest::Events,
            ServiceRequest::Shutdown,
        ] {
            let ServiceResponse::Err(error) = execute_request(&request) else {
                panic!("expected error");
            };
            assert_eq!(error.code, ErrorCode::BadRequest);
            assert!(!request.cacheable());
            assert_eq!(ServiceRequest::daemon_op(request.op()), Some(request));
        }
        assert_eq!(ServiceRequest::daemon_op("analyze"), None);
    }

    #[test]
    fn ops_declares_every_variant_once_with_its_listed_fields() {
        for (i, spec) in OPS.iter().enumerate() {
            // The variant lookup lands on this entry, so no two entries
            // share a variant.
            assert_eq!(spec.default.op(), spec.name);
            assert!(OPS[..i].iter().all(|other| other.name != spec.name));
            let fields: Vec<Value<'_>> = fields!(&spec.default, Value);
            assert_eq!(fields.len(), spec.members.len(), "{}", spec.name);
            assert_eq!(spec.latency, format!("service.op.{}.latency", spec.name));
        }
    }

    #[test]
    fn error_envelope_has_no_payload_and_parses() {
        let response = ServiceResponse::Err(ServiceError::parse("graph", "line 2: bad edge"));
        let line = response.to_json("r-9", false);
        let doc = json::parse(&line).expect("envelope parses");
        assert_eq!(doc.get("status").and_then(Json::as_str), Some("error"));
        assert!(doc.get("payload").is_none());
        let error = doc.get("error").expect("error object");
        assert_eq!(
            error.get("code").and_then(Json::as_str),
            Some("parse_error")
        );
        assert_eq!(error.get("input").and_then(Json::as_str), Some("graph"));
    }

    #[test]
    fn stats_payload_is_a_service_stats_document() {
        let mut latency = Histogram::default();
        latency.record(3);
        latency.record(700);
        let payload = ResponsePayload::Stats {
            counters: vec![("service.cache.hits".into(), 3)],
            gauges: vec![("service.queue.depth".into(), 0)],
            histograms: vec![("service.op.analyze.latency".into(), latency)],
        };
        let doc = json::parse(&payload.to_json()).expect("parses");
        assert_eq!(
            doc.get("kind").and_then(Json::as_str),
            Some("service_stats")
        );
        assert_eq!(
            doc.get("counters")
                .and_then(|c| c.get("service.cache.hits"))
                .and_then(Json::as_num),
            Some(3.0)
        );
        let hist = doc
            .get("histograms")
            .and_then(|h| h.get("service.op.analyze.latency"))
            .expect("histogram summary");
        assert_eq!(hist.get("count").and_then(Json::as_num), Some(2.0));
        assert_eq!(hist.get("sum").and_then(Json::as_num), Some(703.0));
        let buckets = hist.get("buckets").and_then(Json::as_array).unwrap();
        assert_eq!(buckets.len(), 2, "two occupied buckets");
    }

    #[test]
    fn metrics_payload_embeds_valid_exposition() {
        let mut h = Histogram::default();
        h.record(5);
        let exposition = sdf_trace::expo::write_exposition(
            &[("service.requests".into(), 4)],
            &[],
            &[("service.op.plan.latency".into(), h)],
        );
        let payload = ResponsePayload::Metrics { exposition };
        let doc = json::parse(&payload.to_json()).expect("parses");
        assert_eq!(
            doc.get("kind").and_then(Json::as_str),
            Some("service_metrics")
        );
        let text = doc
            .get("exposition")
            .and_then(Json::as_str)
            .expect("exposition text");
        sdf_trace::expo::validate_exposition(text).expect("valid exposition");
        assert!(text.contains("service_requests 4"));
    }

    #[test]
    fn events_payload_lists_drained_records() {
        let telemetry = RequestTelemetry {
            cache: CacheStatus::Miss,
            queue_wait_ns: 10,
            service_ns: 100,
            stages: vec![StageSpan::leaf("parse", 0, 8)],
            counters: vec![("service.jobs.complete".into(), 1)],
        };
        let mut record = telemetry.to_flight_record("analyze", "complete");
        record.seq = 7;
        let payload = ResponsePayload::Events {
            capacity: 16,
            dropped: 2,
            records: vec![record],
        };
        let doc = json::parse(&payload.to_json()).expect("parses");
        assert_eq!(
            doc.get("kind").and_then(Json::as_str),
            Some("service_events")
        );
        assert_eq!(doc.get("capacity").and_then(Json::as_num), Some(16.0));
        assert_eq!(doc.get("dropped").and_then(Json::as_num), Some(2.0));
        let events = doc.get("events").and_then(Json::as_array).unwrap();
        assert_eq!(events[0].get("seq").and_then(Json::as_num), Some(7.0));
        assert_eq!(
            events[0].get("outcome").and_then(Json::as_str),
            Some("complete")
        );
    }

    #[test]
    fn timed_execution_produces_a_stage_tree() {
        let (response, stages) = execute_request_timed(&ServiceRequest::Analyze {
            graph: FIG2.into(),
            serial: false,
            full: false,
        });
        assert_eq!(response.status(), "ok");
        let names: Vec<&str> = stages.iter().map(|s| s.name).collect();
        assert_eq!(names, ["parse", "engine"]);
        let engine = &stages[1];
        assert!(engine.start_ns >= stages[0].start_ns);
        let child_names: Vec<&str> = engine.children.iter().map(|c| c.name).collect();
        assert_eq!(
            child_names,
            [
                "engine.schedule",
                "engine.lifetime",
                "engine.wig",
                "engine.alloc"
            ]
        );
        // Children are laid end to end inside the engine stage.
        for pair in engine.children.windows(2) {
            assert_eq!(pair[1].start_ns, pair[0].start_ns + pair[0].dur_ns);
        }
        // A failing stage is still timed.
        let (response, stages) = execute_request_timed(&ServiceRequest::Analyze {
            graph: "graph broken\nedge A".into(),
            serial: false,
            full: false,
        });
        assert_eq!(response.status(), "error");
        assert_eq!(stages.len(), 1);
        assert_eq!(stages[0].name, "parse");
    }

    #[test]
    fn telemetry_json_is_an_object_not_a_document() {
        let telemetry = RequestTelemetry {
            cache: CacheStatus::Hit,
            queue_wait_ns: 0,
            service_ns: 42,
            stages: vec![],
            counters: vec![("service.cache.hits".into(), 1)],
        };
        let doc = json::parse(&telemetry.to_json()).expect("parses");
        assert!(doc.get("kind").is_none(), "envelope member, not a document");
        assert_eq!(doc.get("cache").and_then(Json::as_str), Some("hit"));
        assert_eq!(doc.get("service_ns").and_then(Json::as_num), Some(42.0));
        assert_eq!(
            doc.get("counters")
                .and_then(|c| c.get("service.cache.hits"))
                .and_then(Json::as_num),
            Some(1.0)
        );
    }
}
