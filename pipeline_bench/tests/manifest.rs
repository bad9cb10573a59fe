//! Runs every workload for about two seconds, untraced and traced, and
//! checks the output against `BENCHMARK.json`: every metric it names is
//! printed as a row with its unit and appears in the result line, the
//! run's outputs are correct, and the traced layer self times add up.

use std::path::{Path, PathBuf};
use std::process::Command;

use sdf_trace::json::{self, Json};

fn manifest() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn metrics<'a>(manifest: &'a Json, key: &str) -> Vec<(&'a str, &'a str)> {
    manifest
        .get(key)
        .and_then(Json::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            (
                m.get("name").and_then(Json::as_str).expect("name"),
                m.get("unit").and_then(Json::as_str).expect("unit"),
            )
        })
        .collect()
}

fn smoke(workload: &str, trace: bool, chrome: &Path) -> (String, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_pipeline_bench"))
        .args(["--workload", workload, "--smoke", "--seed", "3"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--chrome")
        .arg(chrome)
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} (trace {trace}) failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result = json::parse(last).expect("the last line is JSON");
    (stdout, result)
}

#[test]
fn every_manifest_metric_is_printed_with_its_unit() {
    let manifest = manifest();
    let workloads: Vec<&str> = manifest
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
        .collect();
    assert_eq!(workloads, pipeline_bench::WORKLOADS);
    let chrome: PathBuf =
        std::env::temp_dir().join(format!("pipeline_bench_trace_{}.json", std::process::id()));
    for workload in workloads {
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let (stdout, result) = smoke(workload, trace, &chrome);
            assert_eq!(
                result.get("correct").and_then(Json::as_bool),
                Some(true),
                "{stdout}"
            );
            assert!(
                result
                    .get("attempted")
                    .and_then(Json::as_num)
                    .unwrap_or(0.0)
                    >= 1.0
            );
            let listed = result
                .get("metrics")
                .and_then(Json::members)
                .expect("metrics object");
            let names = metrics(&manifest, key);
            assert_eq!(
                listed.len(),
                names.len(),
                "{workload}: result metrics differ from {key}"
            );
            for (name, unit) in names {
                assert!(
                    stdout
                        .lines()
                        .any(|l| l.starts_with(&format!("{workload} {name} "))
                            && l.ends_with(&format!(" {unit}"))),
                    "{workload}: no `{name}` row in {unit}"
                );
                let metric = result
                    .get("metrics")
                    .and_then(|m| m.get(name))
                    .expect("metric in the result line");
                assert_eq!(
                    metric.get("unit").and_then(Json::as_str),
                    Some(unit),
                    "{workload} {name}"
                );
                assert!(
                    metric.get("value").and_then(Json::as_num).is_some(),
                    "{workload} {name}"
                );
            }
            if trace {
                let error = result
                    .get("metrics")
                    .and_then(|m| m.get("trace.additivity_error"))
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_num)
                    .expect("additivity error");
                assert!(
                    error <= 0.05,
                    "{workload}: layer self times miss the op wall time by {error}"
                );
                let trace = std::fs::read_to_string(&chrome).expect("chrome trace written");
                assert!(
                    json::parse(&trace).is_ok(),
                    "{workload}: chrome trace is not JSON"
                );
            }
        }
    }
    let _ = std::fs::remove_file(&chrome);
}
