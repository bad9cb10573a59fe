//! Fuzzing every text parser for panics.
//!
//! Graph files, mode graphs, edit scripts, looped-schedule notation and
//! daemon request lines are each fed inputs from two sources: a
//! grammar-aware generator that strings together the keywords, names,
//! numbers (zero, `u64::MAX` and past it, signed, hex) and separators
//! the grammars use, and byte mutations of the files in
//! `examples/graphs/` and of well-formed edit scripts, schedules and
//! request lines. Every input must give a typed error or a valid
//! result, and a valid result must survive a round trip through its
//! printer. The proptest shim seeds each property from its name and
//! the case counts are fixed, so every run sees the same inputs; in the
//! debug test profile, overflow checks turn any integer wrap into a
//! panic that fails the property.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;

use sdf_service::ServiceRequest;
use sdfmem::core::io::{parse_graph, to_text};
use sdfmem::core::mode::{parse_mode_graph, to_mode_text};
use sdfmem::core::{LoopedSchedule, SdfError, SdfGraph};
use sdfmem::incremental::EditScript;

const CASES: u32 = 1500;

const KEYWORDS: &[&str] = &[
    "graph",
    "actor",
    "edge",
    "delay",
    "modegraph",
    "mode",
    "persistent",
    "set-rate",
    "set-delay",
    "add-edge",
    "remove-edge",
    "bogus",
];
const NAMES: &[&str] = &["A", "B", "C", "x", "y", "_", "delay", "Ä", "名", "@1"];
const NUMBERS: &[&str] = &[
    "0",
    "1",
    "2",
    "3",
    "7",
    "4294967296",
    "18446744073709551615",
    "18446744073709551616",
    "99999999999999999999",
    "-1",
    "+5",
    "0x10",
    "1e3",
    "@0",
    "@2",
    "@-1",
    "@18446744073709551616",
];
const SEPARATORS: &[&str] = &[" ", " ", " ", "\t", "   ", "\u{a0}", "\u{3000}"];
const LINE_ENDS: &[&str] = &["\n", "\n", "\n", "\r\n", "\n\n", " # note\n", "#\n"];

fn pick<'a>(rng: &mut StdRng, pool: &[&'a str]) -> &'a str {
    pool[rng.gen_range(0..pool.len())]
}

/// Lines of one keyword and up to seven operands each.
struct GrammarLines;

impl Strategy for GrammarLines {
    type Value = String;

    fn generate(&self, rng: &mut StdRng) -> String {
        let mut text = String::new();
        if rng.gen_bool(0.5) {
            text += "modegraph m\n";
        }
        for _ in 0..rng.gen_range(0..14) {
            text += pick(rng, KEYWORDS);
            for _ in 0..rng.gen_range(0..8) {
                text += pick(rng, SEPARATORS);
                text += match rng.gen_range(0..3) {
                    0 => pick(rng, NAMES),
                    1 => pick(rng, NUMBERS),
                    _ => pick(rng, KEYWORDS),
                };
            }
            text += pick(rng, LINE_ENDS);
        }
        text
    }
}

/// Schedule notation: names, counts, parentheses and stray characters.
struct ScheduleText;

impl Strategy for ScheduleText {
    type Value = String;

    fn generate(&self, rng: &mut StdRng) -> String {
        const TOKENS: &[&str] = &[
            "A",
            "B",
            "C",
            "Z",
            "AB",
            "(",
            "(",
            ")",
            ")",
            "0",
            "2",
            "3",
            " ",
            "\n",
            "_",
            "#",
            "4294967296",
            "18446744073709551615",
            "18446744073709551616",
        ];
        (0..rng.gen_range(0..20))
            .map(|_| pick(rng, TOKENS))
            .collect()
    }
}

/// A seed with one to five random byte edits, read back lossily as UTF-8.
struct Mutated(fn() -> &'static [String]);

impl Strategy for Mutated {
    type Value = String;

    fn generate(&self, rng: &mut StdRng) -> String {
        const BYTES: &[u8] = b" \t\n#()@-+019AZ_ \xff\xc3";
        let seeds = (self.0)();
        let mut bytes = seeds[rng.gen_range(0..seeds.len())].clone().into_bytes();
        for _ in 0..rng.gen_range(1..6) {
            let at = rng.gen_range(0..=bytes.len());
            match rng.gen_range(0..5) {
                0 if at < bytes.len() => bytes[at] = BYTES[rng.gen_range(0..BYTES.len())],
                1 if at < bytes.len() => {
                    let end = (at + rng.gen_range(1..12)).min(bytes.len());
                    bytes.drain(at..end);
                }
                2 => {
                    let number = pick(rng, NUMBERS).as_bytes();
                    bytes.splice(at..at, number.iter().copied());
                }
                3 if at < bytes.len() => {
                    // Duplicate a stretch, such as a line or a section.
                    let end = (at + rng.gen_range(1..80)).min(bytes.len());
                    let copy = bytes[at..end].to_vec();
                    bytes.splice(at..at, copy);
                }
                _ => bytes.insert(at, BYTES[rng.gen_range(0..BYTES.len())]),
            }
        }
        String::from_utf8_lossy(&bytes).into_owned()
    }
}

/// The files in `examples/graphs/` with extension `ext`.
fn example_files(ext: &str) -> Vec<String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/graphs");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("examples/graphs is readable")
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.extension().is_some_and(|e| e == ext))
        .collect();
    files.sort();
    let texts: Vec<String> = files
        .iter()
        .map(|path| std::fs::read_to_string(path).expect("example file is UTF-8"))
        .collect();
    assert!(!texts.is_empty(), "no .{ext} examples");
    texts
}

fn sdf_seeds() -> &'static [String] {
    static SEEDS: OnceLock<Vec<String>> = OnceLock::new();
    SEEDS.get_or_init(|| example_files("sdf"))
}

fn sdfm_seeds() -> &'static [String] {
    static SEEDS: OnceLock<Vec<String>> = OnceLock::new();
    SEEDS.get_or_init(|| example_files("sdfm"))
}

fn edit_seeds() -> &'static [String] {
    static SEEDS: OnceLock<Vec<String>> = OnceLock::new();
    SEEDS.get_or_init(|| {
        vec![
            "set-rate A B 4 2\nset-delay B C 7 @1\nadd-edge C D 1 1 delay 3\nremove-edge A B\n"
                .to_string(),
            "# header\n\nset-delay A B 1 # trailing\nremove-edge B C @0\n".to_string(),
        ]
    })
}

fn schedule_seeds() -> &'static [String] {
    static SEEDS: OnceLock<Vec<String>> = OnceLock::new();
    SEEDS.get_or_init(|| {
        ["A(2B(2C))", "(3A)(6B)(2C)", "A 2(B(2C))", "(2(3B)(5C))(7A)"]
            .map(String::from)
            .to_vec()
    })
}

fn request_seeds() -> &'static [String] {
    static SEEDS: OnceLock<Vec<String>> = OnceLock::new();
    SEEDS.get_or_init(|| {
        let graph = sdf_seeds()[0].clone();
        let requests = [
            ServiceRequest::Analyze {
                graph: graph.clone(),
                serial: false,
                full: true,
            },
            ServiceRequest::Explain {
                graph: graph.clone(),
            },
            ServiceRequest::Edit {
                graph: graph.clone(),
                edits: edit_seeds()[0].clone(),
            },
            ServiceRequest::Modes {
                graph: sdfm_seeds()[0].clone(),
            },
            ServiceRequest::Baseline {
                graph,
                repeats: 3,
                full: false,
                perturb: Some("sched.dppo.cells=+1".to_string()),
            },
            ServiceRequest::daemon_op("stats").expect("stats is a daemon op"),
        ];
        requests.iter().map(|r| r.to_json("r1")).collect()
    })
}

/// The three-actor chain schedules are parsed against.
fn abc() -> &'static SdfGraph {
    static GRAPH: OnceLock<SdfGraph> = OnceLock::new();
    GRAPH.get_or_init(|| parse_graph("edge A B 2 1\nedge B C 2 1\n").expect("chain parses"))
}

/// Runs `check` on `input`, turning a panic into a failed case that
/// names the input.
fn no_panic(input: &str, check: impl FnOnce(&str) -> Result<(), String>) -> Result<(), String> {
    match catch_unwind(AssertUnwindSafe(|| check(input))) {
        Ok(result) => result.map_err(|e| format!("{e}\n  input: {input:?}")),
        Err(_) => Err(format!("panicked on input {input:?}")),
    }
}

/// A parse error names a real, 1-based line.
fn typed(err: &SdfError) -> Result<(), String> {
    match err {
        SdfError::Parse { line: 0, .. } => Err(format!("line 0 in {err}")),
        _ => Ok(()),
    }
}

fn check_graph(text: &str) -> Result<(), String> {
    match parse_graph(text) {
        Ok(graph) => {
            let canon = to_text(&graph);
            let again = parse_graph(&canon).map_err(|e| format!("printed graph fails: {e}"))?;
            if to_text(&again) != canon {
                return Err(format!("graph round trip differs: {canon:?}"));
            }
            Ok(())
        }
        Err(err) => typed(&err),
    }
}

fn check_modes(text: &str) -> Result<(), String> {
    match parse_mode_graph(text) {
        Ok(mg) => {
            let canon = to_mode_text(&mg);
            let again =
                parse_mode_graph(&canon).map_err(|e| format!("printed mode graph fails: {e}"))?;
            if to_mode_text(&again) != canon {
                return Err(format!("mode graph round trip differs: {canon:?}"));
            }
            Ok(())
        }
        Err(err) => typed(&err),
    }
}

fn check_edits(text: &str) -> Result<(), String> {
    match EditScript::parse(text) {
        Ok(script) => match EditScript::parse(&script.to_text()) {
            Ok(again) if again == script => Ok(()),
            other => Err(format!("edit script round trip gives {other:?}")),
        },
        Err(err) => typed(&err),
    }
}

fn check_schedule(text: &str) -> Result<(), String> {
    let graph = abc();
    match LoopedSchedule::parse(text, graph) {
        Ok(schedule) => {
            // Overflow checks make a firing count past u64 a panic here.
            schedule.firing_counts(graph.actor_count());
            let printed = schedule.display(graph).to_string();
            match LoopedSchedule::parse(&printed, graph) {
                Ok(again) if again == schedule => Ok(()),
                other => Err(format!(
                    "schedule round trip via {printed:?} gives {other:?}"
                )),
            }
        }
        Err(err) => typed(&err),
    }
}

fn check_request(line: &str) -> Result<(), String> {
    let Ok((id, request)) = ServiceRequest::parse(line) else {
        return Ok(());
    };
    let again = ServiceRequest::parse(&request.to_json(&id));
    if again.as_ref().ok() != Some(&(id, request.clone())) {
        return Err(format!("request round trip gives {again:?}"));
    }
    if request.cacheable() {
        // Parses every embedded graph, mode graph and edit script.
        let _ = request.canonical_string();
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn graph_parser_survives_grammar_fuzz(text in GrammarLines) {
        no_panic(&text, check_graph)?;
    }

    #[test]
    fn graph_parser_survives_mutated_examples(text in Mutated(sdf_seeds)) {
        no_panic(&text, check_graph)?;
    }

    #[test]
    fn mode_parser_survives_grammar_fuzz(text in GrammarLines) {
        no_panic(&text, check_modes)?;
    }

    #[test]
    fn mode_parser_survives_mutated_examples(text in Mutated(sdfm_seeds)) {
        no_panic(&text, check_modes)?;
    }

    #[test]
    fn edit_parser_survives_grammar_fuzz(text in GrammarLines) {
        no_panic(&text, check_edits)?;
    }

    #[test]
    fn edit_parser_survives_mutated_scripts(text in Mutated(edit_seeds)) {
        no_panic(&text, check_edits)?;
    }

    #[test]
    fn schedule_parser_survives_notation_fuzz(text in ScheduleText) {
        no_panic(&text, check_schedule)?;
    }

    #[test]
    fn schedule_parser_survives_mutated_schedules(text in Mutated(schedule_seeds)) {
        no_panic(&text, check_schedule)?;
    }

    #[test]
    fn request_parser_survives_mutated_lines(line in Mutated(request_seeds)) {
        no_panic(&line, check_request)?;
    }
}

// Regressions: inputs that once wrapped or panicked.

#[test]
fn loop_count_product_past_u64_is_refused() {
    // 2^32 · 2^32 wrapped to a firing count of 0.
    let err = LoopedSchedule::parse("4294967296(4294967296A)", abc()).unwrap_err();
    assert_eq!(
        err.to_string(),
        r#"line 1: loop count overflows u64: "4294967296(4294967296A)""#
    );
}

#[test]
fn folded_firing_count_past_u64_is_refused() {
    // u64::MAX · 2 wrapped to u64::MAX − 1.
    let err = LoopedSchedule::parse("18446744073709551615(2A)", abc()).unwrap_err();
    assert!(matches!(err, SdfError::Parse { line: 1, .. }), "{err}");
    let max = LoopedSchedule::parse("18446744073709551615(A)", abc()).unwrap();
    assert_eq!(max.firing_counts(3)[0], u64::MAX);
}

#[test]
fn nested_and_repeated_firings_past_u64_are_refused() {
    // Each count fits, the firings per pass do not: 2^32 · 2^32 through
    // nesting, u64::MAX + 1 through a second appearance.
    for text in ["4294967296((4294967296(A B)))", "18446744073709551615A B A"] {
        let err = LoopedSchedule::parse(text, abc()).unwrap_err();
        assert!(
            err.to_string().contains("firing count overflows u64"),
            "{err}"
        );
    }
    let max = LoopedSchedule::parse("18446744073709551614A B A", abc()).unwrap();
    assert_eq!(max.firing_counts(3)[0], u64::MAX);
}

/// The generators reach both outcomes of every parser, so a property
/// that passes is not passing on errors alone.
#[test]
fn fuzz_inputs_reach_valid_results_and_errors() {
    fn outcomes(strategy: &impl Strategy<Value = String>, ok: fn(&str) -> bool) -> (u32, u32) {
        let mut rng = proptest::rng_for("fuzz_inputs_reach_valid_results_and_errors");
        let valid = (0..400)
            .filter(|_| ok(&strategy.generate(&mut rng)))
            .count() as u32;
        (valid, 400 - valid)
    }
    let rows: [(&str, (u32, u32)); 7] = [
        (
            "graph grammar",
            outcomes(&GrammarLines, |t| parse_graph(t).is_ok()),
        ),
        (
            "graph mutation",
            outcomes(&Mutated(sdf_seeds), |t| parse_graph(t).is_ok()),
        ),
        (
            "mode mutation",
            outcomes(&Mutated(sdfm_seeds), |t| parse_mode_graph(t).is_ok()),
        ),
        (
            "edit mutation",
            outcomes(&Mutated(edit_seeds), |t| EditScript::parse(t).is_ok()),
        ),
        (
            "schedule notation",
            outcomes(&ScheduleText, |t| LoopedSchedule::parse(t, abc()).is_ok()),
        ),
        (
            "schedule mutation",
            outcomes(&Mutated(schedule_seeds), |t| {
                LoopedSchedule::parse(t, abc()).is_ok()
            }),
        ),
        (
            "request mutation",
            outcomes(&Mutated(request_seeds), |l| {
                ServiceRequest::parse(l).is_ok()
            }),
        ),
    ];
    for (name, (valid, errors)) in rows {
        assert!(
            valid > 0 && errors > 0,
            "{name}: {valid} valid, {errors} errors"
        );
    }
}
