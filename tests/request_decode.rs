//! Decode golden for the service wire.
//!
//! Each row is one request line and the exact outcome
//! `ServiceRequest::parse` gives it: the `(request_id, request)` pair,
//! or a `bad_request` error with its message word for word. The rows
//! cover every op with all of its members, every op with its optional
//! members left out (pinning the defaults), every error the decoder
//! can give, and a member of the wrong JSON type for every kind. A second table pins `canonical_string()` — the text the
//! daemon's result cache is keyed by — for one request per cacheable op.

use sdf_service::{ErrorCode, MemoryModel, OrderMethod, ServiceRequest};
use sdfmem::trace::SCHEMA_VERSION;

const FIG2: &str = "graph fig2\nedge A B 20 10\nedge B C 20 10\n";
/// `FIG2` as a JSON string literal.
const FIG2_JSON: &str = r#""graph fig2\nedge A B 20 10\nedge B C 20 10\n""#;
const MODES: &str = "modegraph toy\npersistent x y\nmode one\nedge x y 1 1 delay 1\n";
const MODES_JSON: &str = r#""modegraph toy\npersistent x y\nmode one\nedge x y 1 1 delay 1\n""#;

/// A `service_request` line of the current schema with `members` after
/// the envelope.
fn line(members: &str) -> String {
    format!(r#"{{"kind":"service_request","schema_version":{SCHEMA_VERSION},{members}}}"#)
}

/// A `service_request` line whose members end with `"graph":FIG2`.
fn with_fig2(members: &str) -> String {
    line(&format!(r#"{members}"graph":{FIG2_JSON}"#))
}

type Outcome = Result<(&'static str, ServiceRequest), &'static str>;

fn ok(id: &'static str, request: ServiceRequest) -> Outcome {
    Ok((id, request))
}

fn analyze(serial: bool, full: bool) -> ServiceRequest {
    ServiceRequest::Analyze {
        graph: FIG2.into(),
        serial,
        full,
    }
}

fn plan(method: OrderMethod, model: MemoryModel) -> ServiceRequest {
    ServiceRequest::Plan {
        graph: FIG2.into(),
        method,
        model,
    }
}

fn simulate(method: OrderMethod, model: MemoryModel) -> ServiceRequest {
    ServiceRequest::Simulate {
        graph: FIG2.into(),
        method,
        model,
    }
}

fn edit() -> ServiceRequest {
    ServiceRequest::Edit {
        graph: FIG2.into(),
        edits: "set-delay A B 2\n".into(),
    }
}

fn baseline(repeats: u32, full: bool, perturb: Option<&str>) -> ServiceRequest {
    ServiceRequest::Baseline {
        graph: FIG2.into(),
        repeats,
        full,
        perturb: perturb.map(str::to_string),
    }
}

fn compare(gate: bool, allow: &[&str]) -> ServiceRequest {
    ServiceRequest::Compare {
        baseline: "B".into(),
        candidate: "C".into(),
        gate,
        allow: allow.iter().map(|s| s.to_string()).collect(),
    }
}

/// Lines that decode: every op with every member, then every op with
/// its optional members (and `request_id`) left out.
fn accepted() -> Vec<(String, Outcome)> {
    use MemoryModel::{NonShared, Shared};
    use OrderMethod::{Apgan, Rpmc};
    vec![
        (
            with_fig2(r#""request_id":"a1","op":"analyze","serial":true,"full":true,"#),
            ok("a1", analyze(true, true)),
        ),
        (
            with_fig2(r#""request_id":"p1","op":"plan","method":"rpmc","model":"nonshared","#),
            ok("p1", plan(Rpmc, NonShared)),
        ),
        (
            with_fig2(r#""request_id":"s1","op":"simulate","method":"rpmc","model":"nonshared","#),
            ok("s1", simulate(Rpmc, NonShared)),
        ),
        (
            with_fig2(r#""request_id":"x1","op":"explain","#),
            ok("x1", ServiceRequest::Explain { graph: FIG2.into() }),
        ),
        (
            with_fig2(r#""request_id":"e1","op":"edit","edits":"set-delay A B 2\n","#),
            ok("e1", edit()),
        ),
        (
            line(&format!(
                r#""request_id":"m1","op":"modes","graph":{MODES_JSON}"#
            )),
            ok(
                "m1",
                ServiceRequest::Modes {
                    graph: MODES.into(),
                },
            ),
        ),
        (
            with_fig2(
                r#""request_id":"b1","op":"baseline","repeats":2,"full":true,"perturb":"sched.dppo.cells=+1","#,
            ),
            ok("b1", baseline(2, true, Some("sched.dppo.cells=+1"))),
        ),
        (
            line(
                r#""request_id":"c1","op":"compare","gate":true,"allow":["sched.*","alloc.first_fit.probes"],"baseline":"B","candidate":"C""#,
            ),
            ok("c1", compare(true, &["sched.*", "alloc.first_fit.probes"])),
        ),
        (
            line(r#""request_id":"t1","op":"stats""#),
            ok("t1", ServiceRequest::Stats),
        ),
        (
            line(r#""request_id":"t2","op":"metrics""#),
            ok("t2", ServiceRequest::Metrics),
        ),
        (
            line(r#""request_id":"t3","op":"events""#),
            ok("t3", ServiceRequest::Events),
        ),
        (
            line(r#""request_id":"t4","op":"shutdown""#),
            ok("t4", ServiceRequest::Shutdown),
        ),
        // Optional members left out: today's defaults.
        (
            with_fig2(r#""op":"analyze","#),
            ok("-", analyze(false, false)),
        ),
        (with_fig2(r#""op":"plan","#), ok("-", plan(Apgan, Shared))),
        (
            with_fig2(r#""op":"simulate","#),
            ok("-", simulate(Apgan, Shared)),
        ),
        (
            with_fig2(r#""op":"explain","#),
            ok("-", ServiceRequest::Explain { graph: FIG2.into() }),
        ),
        (
            with_fig2(r#""op":"edit","edits":"set-delay A B 2\n","#),
            ok("-", edit()),
        ),
        (
            line(&format!(r#""op":"modes","graph":{MODES_JSON}"#)),
            ok(
                "-",
                ServiceRequest::Modes {
                    graph: MODES.into(),
                },
            ),
        ),
        (
            with_fig2(r#""op":"baseline","#),
            ok("-", baseline(3, false, None)),
        ),
        (
            line(r#""op":"compare","baseline":"B","candidate":"C""#),
            ok("-", compare(false, &[])),
        ),
        (line(r#""op":"stats""#), ok("-", ServiceRequest::Stats)),
        (line(r#""op":"metrics""#), ok("-", ServiceRequest::Metrics)),
        (line(r#""op":"events""#), ok("-", ServiceRequest::Events)),
        (
            line(r#""op":"shutdown""#),
            ok("-", ServiceRequest::Shutdown),
        ),
    ]
}

/// Lines that fail, with the exact `bad_request` message.
fn rejected() -> Vec<(String, Outcome)> {
    let v = SCHEMA_VERSION;
    vec![
        (
            "not json".to_string(),
            Err("bad JSON: invalid literal at byte 0"),
        ),
        (
            r#"{"kind":"engine_report","schema_version":10,"op":"stats"}"#.to_string(),
            Err(r#"expected kind "service_request", got "engine_report""#),
        ),
        (
            r#"{"schema_version":10,"op":"stats"}"#.to_string(),
            Err(r#"expected kind "service_request", got """#),
        ),
        (
            format!(
                r#"{{"kind":"service_request","schema_version":{},"op":"stats"}}"#,
                v + 1
            ),
            Err("unsupported schema_version Some(11.0) (this server speaks 10)"),
        ),
        (
            r#"{"kind":"service_request","op":"stats"}"#.to_string(),
            Err("unsupported schema_version None (this server speaks 10)"),
        ),
        (line(r#""request_id":"r""#), Err(r#"missing "op""#)),
        (
            line(r#""op":"frobnicate""#),
            Err(r#"unknown op "frobnicate""#),
        ),
        (line(r#""op":"analyze""#), Err(r#"missing "graph" text"#)),
        (
            line(r#""op":"plan","method":"rpmc""#),
            Err(r#"missing "graph" text"#),
        ),
        (
            line(r#""op":"edit","edits":"set-delay A B 2\n""#),
            Err(r#"missing "graph" text"#),
        ),
        (with_fig2(r#""op":"edit","#), Err(r#"missing "edits" text"#)),
        (line(r#""op":"modes""#), Err(r#"missing "graph" text"#)),
        (line(r#""op":"baseline""#), Err(r#"missing "graph" text"#)),
        (
            line(r#""op":"compare","candidate":"C""#),
            Err(r#"missing "baseline" text"#),
        ),
        (
            line(r#""op":"compare","baseline":"B""#),
            Err(r#"missing "candidate" text"#),
        ),
        (
            with_fig2(r#""op":"plan","method":"dfs","#),
            Err(r#"bad method "dfs""#),
        ),
        (
            with_fig2(r#""op":"simulate","model":"huge","#),
            Err(r#"bad model "huge""#),
        ),
        (
            with_fig2(r#""op":"baseline","repeats":0,"#),
            Err("bad repeats 0"),
        ),
        (
            with_fig2(r#""op":"baseline","repeats":1.5,"#),
            Err("bad repeats 1.5"),
        ),
        (
            with_fig2(r#""op":"baseline","repeats":4294967296,"#),
            Err("bad repeats 4294967296"),
        ),
        (
            line(r#""op":"compare","allow":"sched.*","baseline":"B","candidate":"C""#),
            Err(r#""allow" must be an array"#),
        ),
        (
            line(r#""op":"compare","allow":["sched.*",7],"baseline":"B","candidate":"C""#),
            Err(r#""allow" entries must be strings"#),
        ),
    ]
}

/// Present members of the wrong JSON type: each is a bad request naming
/// the member, never a silent default.
fn wrong_typed() -> Vec<(String, Outcome)> {
    vec![
        (
            with_fig2(r#""request_id":5,"op":"analyze","#),
            Err(r#""request_id" must be a string"#),
        ),
        (line(r#""op":5"#), Err(r#""op" must be a string"#)),
        (
            with_fig2(r#""op":"analyze","full":"yes","#),
            Err(r#""full" must be a boolean"#),
        ),
        (
            with_fig2(r#""op":"analyze","serial":1,"#),
            Err(r#""serial" must be a boolean"#),
        ),
        (
            line(r#""op":"analyze","graph":["graph g"]"#),
            Err(r#""graph" must be a string"#),
        ),
        (
            with_fig2(r#""op":"plan","method":5,"#),
            Err(r#""method" must be a string"#),
        ),
        (
            with_fig2(r#""op":"simulate","model":true,"#),
            Err(r#""model" must be a string"#),
        ),
        (
            with_fig2(r#""op":"edit","edits":null,"#),
            Err(r#""edits" must be a string"#),
        ),
        (
            with_fig2(r#""op":"baseline","repeats":"5","#),
            Err(r#""repeats" must be a number"#),
        ),
        (
            with_fig2(r#""op":"baseline","perturb":7,"#),
            Err(r#""perturb" must be a string"#),
        ),
        (
            line(r#""op":"compare","gate":"no","baseline":"B","candidate":"C""#),
            Err(r#""gate" must be a boolean"#),
        ),
        (
            line(r#""op":"compare","baseline":{},"candidate":"C""#),
            Err(r#""baseline" must be a string"#),
        ),
    ]
}

#[test]
fn every_wire_line_decodes_to_its_pinned_outcome() {
    let rows = accepted()
        .into_iter()
        .chain(rejected())
        .chain(wrong_typed());
    for (wire, expected) in rows {
        let actual = ServiceRequest::parse(&wire);
        match (actual, expected) {
            (Ok((id, request)), Ok((want_id, want))) => {
                assert_eq!(id, want_id, "{wire}");
                assert_eq!(request, want, "{wire}");
            }
            (Err(error), Err(message)) => {
                assert_eq!(error.code, ErrorCode::BadRequest, "{wire}");
                assert_eq!(error.input, None, "{wire}");
                assert_eq!(error.message, message, "{wire}");
            }
            (actual, expected) => panic!("{wire}\n  got {actual:?}\n  want {expected:?}"),
        }
    }
}

#[test]
fn canonical_strings_are_pinned_for_every_cacheable_op() {
    // Formatting noise in the inputs that canonicalisation removes.
    let spaced = "# fig. 2\ngraph fig2\n\nedge  A B 20 10\nedge B C 20 10 # tail\n";
    let fig2 = "graph fig2\nactor A\nactor B\nactor C\nedge A B 20 10\nedge B C 20 10\n";
    let rows = [
        (
            ServiceRequest::Analyze {
                graph: spaced.into(),
                serial: true,
                full: true,
            },
            format!("analyze full=true\n{fig2}"),
        ),
        (
            ServiceRequest::Plan {
                graph: spaced.into(),
                method: OrderMethod::Rpmc,
                model: MemoryModel::NonShared,
            },
            format!("plan method=rpmc model=nonshared\n{fig2}"),
        ),
        (
            ServiceRequest::Simulate {
                graph: FIG2.into(),
                method: OrderMethod::Apgan,
                model: MemoryModel::Shared,
            },
            format!("simulate method=apgan model=shared\n{fig2}"),
        ),
        (
            ServiceRequest::Explain {
                graph: spaced.into(),
            },
            format!("explain\n{fig2}"),
        ),
        (
            ServiceRequest::Edit {
                graph: spaced.into(),
                edits: "# slow A down\nset-rate  A B 40 10\nset-delay B C 3\n".into(),
            },
            format!("edit\n{fig2}@edits\nset-rate A B 40 10\nset-delay B C 3\n"),
        ),
        (
            ServiceRequest::Modes {
                graph: format!("# two modes\n{MODES}mode two\nedge x y 1 1 delay 1\n"),
            },
            "modes\nmodegraph toy\npersistent x y\nmode one\nactor x\nactor y\nedge x y 1 1 delay 1\n\
             mode two\nactor x\nactor y\nedge x y 1 1 delay 1\n"
                .to_string(),
        ),
    ];
    for (request, canonical) in rows {
        assert!(request.cacheable(), "{}", request.op());
        assert_eq!(request.canonical_string(), Ok(canonical));
    }
}
