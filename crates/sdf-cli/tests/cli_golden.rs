//! Byte-level golden corpus for the `sdfmem` binary.
//!
//! Each case spawns the built binary from the workspace root with
//! relative paths, then compares its stdout, byte for byte, with the
//! committed fixture under `tests/golden/cli/` and its exit code with
//! the one in the case table. The text is never normalised: usage
//! text, report layouts, JSON separators and trailing newlines are all
//! part of the contract. Commands that print wall-clock times
//! (`analyze`, `profile`, `baseline`) are left out.

use std::path::PathBuf;

const GRAPHS: [&str; 2] = ["cd_dat", "satrec"];

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Runs `sdfmem argv…` from the workspace root: (stdout, stderr, exit
/// code).
fn sdfmem(argv: &[String]) -> (String, String, i32) {
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_sdfmem"))
        .args(argv)
        .current_dir(root())
        .output()
        .expect("spawn sdfmem");
    let stdout = String::from_utf8(output.stdout).expect("stdout is UTF-8");
    let stderr = String::from_utf8(output.stderr).expect("stderr is UTF-8");
    (stdout, stderr, output.status.code().expect("exit code"))
}

/// One pinned invocation: fixture name, argv, expected exit code.
struct Case {
    name: String,
    argv: Vec<String>,
    code: i32,
}

fn case(name: String, argv: &[&str], code: i32) -> Case {
    Case {
        name,
        argv: argv.iter().map(|s| s.to_string()).collect(),
        code,
    }
}

/// Runs every case and reports all mismatches at once.
fn check(cases: &[Case]) {
    let mut failures = Vec::new();
    for c in cases {
        let path = root().join(format!("tests/golden/cli/{}.stdout", c.name));
        let expected = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        let (actual, _, code) = sdfmem(&c.argv);
        if code != c.code {
            failures.push(format!(
                "{}: {:?} exited {code}, want {}",
                c.name, c.argv, c.code
            ));
        }
        if actual != expected {
            failures.push(format!(
                "{}: {:?} stdout differs from {}\n--- expected\n{expected}\n--- actual\n{actual}",
                c.name,
                c.argv,
                path.display()
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn help() {
    check(&[case("help".into(), &["help"], 0)]);
}

#[test]
fn graph_commands() {
    let mut cases = Vec::new();
    for g in GRAPHS {
        let file = format!("examples/graphs/{g}.sdf");
        for cmd in ["info", "bounds", "dot"] {
            cases.push(case(format!("{g}.{cmd}"), &[cmd, &file], 0));
        }
        for method in ["apgan", "rpmc"] {
            for model in ["shared", "nonshared"] {
                cases.push(case(
                    format!("{g}.schedule.{method}.{model}"),
                    &["schedule", &file, "--method", method, "--model", model],
                    0,
                ));
            }
            for cmd in ["allocate", "gantt"] {
                cases.push(case(
                    format!("{g}.{cmd}.{method}"),
                    &[cmd, &file, "--method", method],
                    0,
                ));
            }
        }
        cases.push(case(format!("{g}.codegen"), &["codegen", &file], 0));
        cases.push(case(
            format!("{g}.codegen.standalone"),
            &["codegen", &file, "--standalone"],
            0,
        ));
    }
    check(&cases);
}

#[test]
fn reports() {
    let mut cases = Vec::new();
    for g in GRAPHS {
        let file = format!("examples/graphs/{g}.sdf");
        for cmd in ["simulate", "explain"] {
            for report in ["text", "json"] {
                cases.push(case(
                    format!("{g}.{cmd}.{report}"),
                    &[cmd, &file, "--report", report],
                    0,
                ));
            }
        }
    }
    let cd_dat = "examples/graphs/cd_dat.sdf";
    cases.push(case(
        "cd_dat.explain.buffer".into(),
        &["explain", cd_dat, "--buffer", "stage2->stage3"],
        0,
    ));
    cases.push(case(
        "cd_dat.explain.buffer_unknown".into(),
        &["explain", cd_dat, "--buffer", "X->Y"],
        1,
    ));
    for report in ["text", "json"] {
        cases.push(case(
            format!("modem_acq_track.modes.{report}"),
            &[
                "modes",
                "examples/graphs/modem_acq_track.sdfm",
                "--report",
                report,
            ],
            0,
        ));
    }
    check(&cases);
}

/// `compare` reads frozen copies of two baseline profiles, so a refresh
/// of `bench/baselines` leaves these fixtures alone.
#[test]
fn compare_formats() {
    let cases: Vec<Case> = ["text", "json", "md"]
        .into_iter()
        .map(|format| {
            case(
                format!("compare.{format}"),
                &[
                    "compare",
                    "tests/golden/cli/profiles/cd2dat.json",
                    "tests/golden/cli/profiles/satrec.json",
                    "--format",
                    format,
                ],
                1,
            )
        })
        .collect();
    check(&cases);
}

#[test]
fn graphs_whose_buffers_overflow_u64_are_refused() {
    // Parallel edges whose TNSE sum wraps, and one edge whose TNSE wraps
    // on its own: `analyze` prints nothing and fails instead of reporting
    // pools computed from wrapped sums.  An error prints no timings, so
    // these `analyze` cases can be pinned.  A rejected graph is a domain
    // failure: exit 1, the reason on stderr, and no usage text.
    let cases: Vec<Case> = ["overflow_parallel", "overflow_tnse"]
        .into_iter()
        .map(|g| {
            let file = format!("tests/golden/cli/graphs/{g}.sdf");
            case(format!("{g}.analyze"), &["analyze", &file], 1)
        })
        .collect();
    check(&cases);
    for c in &cases {
        let (_, stderr, _) = sdfmem(&c.argv);
        assert!(stderr.starts_with("error: "), "{}: {stderr}", c.name);
        assert!(!stderr.contains("USAGE:"), "{}: {stderr}", c.name);
    }
}

#[test]
fn usage_errors_exit_2_with_empty_stdout() {
    let cases: &[&[&str]] = &[
        // A bad or missing flag value.
        &["schedule", "g", "--method", "magic"],
        &["schedule", "g", "--method"],
        &["schedule", "g", "--model", "psychic"],
        &["schedule", "g", "--model"],
        &["analyze", "g", "--report", "xml"],
        &["analyze", "g", "--report"],
        &["analyze", "g", "--trace"],
        &["analyze", "g", "--frobnicate"],
        &["baseline", "g", "--out"],
        &["baseline", "g", "--repeats"],
        &["baseline", "g", "--repeats", "many"],
        &["baseline", "g", "--repeats", "0"],
        &["compare", "a", "b", "--format", "xml"],
        &["compare", "a", "b", "--format"],
        &["compare", "a", "b", "--allow"],
        &["simulate", "g", "--model", "psychic"],
        &["simulate", "g", "--method"],
        &["simulate", "g", "--report", "xml"],
        &["simulate", "g", "--bogus"],
        // A flag another command owns.
        &["info", "g", "--method", "apgan"],
        &["bounds", "g", "--report", "json"],
        &["dot", "g", "--full"],
        &["schedule", "g", "--standalone"],
        &["schedule", "g", "--report", "json"],
        &["allocate", "g", "--model", "shared"],
        &["analyze", "g", "--method", "apgan"],
        &["analyze", "g", "--out", "x"],
        &["profile", "g", "--serial"],
        &["baseline", "g", "--gate"],
        &["compare", "a", "b", "--repeats", "3"],
        &["codegen", "g", "--trace", "t"],
        &["simulate", "g", "--standalone"],
        &["gantt", "g", "--model", "shared"],
        &["serve", "a:1", "--method", "apgan"],
        &["serve", "a:1", "--interval-ms", "9"],
        &["submit", "a:1", "--standalone"],
        &["submit", "a:1", "--trace-dir", "d"],
        &["top", "a:1", "--workers", "2"],
        &["top", "a:1", "--kind", "stats"],
        &["explain", "g", "--method", "apgan"],
        &["explain", "g", "--full"],
        &["analyze", "g", "--buffer", "b"],
        &["simulate", "g", "--buffer", "b"],
        &["edit", "a:1", "--kind", "stats"],
        &["edit", "a:1", "--method", "apgan"],
        &["submit", "a:1", "--edits", "e"],
        &["analyze", "g", "--timeout-ms", "5"],
        &["serve", "a:1", "--timeout-ms", "5"],
    ];
    let mut failures = Vec::new();
    for argv in cases {
        let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        let (stdout, _, code) = sdfmem(&argv);
        if code != 2 || !stdout.is_empty() {
            failures.push(format!("{argv:?}: exit {code}, stdout {stdout:?}"));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
