//! Benchmarks the synthesis engine's parallel candidate evaluation
//! against the serial baseline on the paper's systems plus large
//! homogeneous grids, printing each run's per-stage timing report as JSON
//! and a serial/parallel speedup summary, and writing the whole sweep —
//! timings plus a traced run's algorithm counters per system — to an
//! `engine_sweep.json` machine-readable artifact (`--out` picks another
//! path, but never one holding a `bench_trajectory` document).
//!
//! The binary is also the maintenance tool of the regression-sentinel
//! corpus under `bench/baselines/`:
//!
//! * `--baseline DIR` captures a fresh sentinel profile for every graph
//!   in the example corpus (`examples/graphs/*.sdf`), writes them to
//!   `DIR/<graph>.json`, and appends one trajectory point to the
//!   `bench_trajectory` file at `--out` (default `BENCH_3.json`) so
//!   successive captures stay comparable over time;
//! * `--gate DIR` re-captures each profiled graph and diffs it against
//!   the committed baseline, writing a markdown report and exiting 1 on
//!   any gated regression — this is what CI's perf-gate job runs.
//!
//! ```text
//! cargo run --release --bin engine_sweep [-- --min-actors N] [--repeats N] [--out FILE]
//! cargo run --release --bin engine_sweep -- --baseline bench/baselines [--graphs DIR]
//! cargo run --release --bin engine_sweep -- --gate bench/baselines [--report-out FILE]
//! ```

use std::sync::Arc;

use sdf_apps::homogeneous::homogeneous_grid;
use sdf_apps::registry::table1_systems;
use sdf_core::SdfGraph;
use sdf_regress::{diff, DiffOptions, Profile, RegressionReport};
use sdf_trace::json::{self, Json};
use sdfmem::engine::AnalysisBuilder;
use sdfmem::sentinel::{capture_profile, CaptureOptions, PERTURB_ENV};

/// Wall times of one serial-vs-parallel comparison, plus the traced
/// (untimed) run's full engine report with counters.
struct Sample {
    name: String,
    serial_ns: u64,
    parallel_ns: u64,
    /// `EngineReport::to_json` of a run under an installed recorder, so
    /// its `counters` section is populated.
    traced_report_json: String,
}

fn measure(graph: &SdfGraph, repeats: u32) -> Sample {
    let serial = AnalysisBuilder::new().full(true).parallel(false);
    let parallel = serial.clone().parallel(true);
    // Warm-up run of each, then keep the fastest of `repeats` to damp
    // scheduler noise.
    let mut serial_ns = u64::MAX;
    let mut parallel_ns = u64::MAX;
    let mut last_json = String::new();
    serial.run_full(graph).expect("serial engine");
    parallel.run_full(graph).expect("parallel engine");
    for _ in 0..repeats {
        let s = serial.run_full(graph).expect("serial engine");
        serial_ns = serial_ns.min(s.report.total_ns);
        let p = parallel.run_full(graph).expect("parallel engine");
        parallel_ns = parallel_ns.min(p.report.total_ns);
        assert_eq!(
            s.analysis.shared_total(),
            p.analysis.shared_total(),
            "{}: serial and parallel winners diverge",
            graph.name()
        );
        last_json = p.report.to_json();
    }
    println!("{last_json}");
    // One extra run under a recorder, outside the timing loop so tracing
    // overhead never contaminates the serial/parallel comparison.
    let recorder = Arc::new(sdf_trace::Recorder::new());
    let traced = sdf_trace::scoped(&recorder, || parallel.run_full(graph)).expect("traced engine");
    Sample {
        name: graph.name().to_string(),
        serial_ns,
        parallel_ns,
        traced_report_json: traced.report.to_json(),
    }
}

/// Renders the sweep as the `BENCH_3.json` artifact: schema version, the
/// serial/parallel minima in microseconds and each system's traced report
/// (embedded verbatim — it is already JSON).
fn bench_json(samples: &[Sample]) -> String {
    json::document("engine_sweep", |w| {
        w.str("bench", "engine_sweep").array("systems", |w| {
            for sample in samples {
                w.item_object(|w| {
                    w.str("name", &sample.name)
                        .us("serial_us", sample.serial_ns)
                        .us("parallel_us", sample.parallel_ns)
                        .raw("report", &sample.traced_report_json);
                });
            }
        });
    })
}

/// Parses every `*.sdf` file under `dir`, sorted by file name so the
/// corpus order (and with it every report) is deterministic.
fn load_corpus(dir: &str) -> Result<Vec<SdfGraph>, String> {
    let mut paths: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read graph corpus {dir}: {e}"))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "sdf"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(format!("graph corpus {dir} has no .sdf files"));
    }
    let mut graphs = Vec::with_capacity(paths.len());
    for path in paths {
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let graph =
            sdf_core::io::parse_graph(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        graphs.push(graph);
    }
    Ok(graphs)
}

/// One sentinel capture per corpus graph. The capture honours the
/// `SDF_REGRESS_PERTURB` test hook so the gate can be exercised
/// end-to-end without a real regression.
fn capture_corpus(graphs: &[SdfGraph], repeats: u32) -> Result<Vec<Profile>, String> {
    let options = CaptureOptions {
        repeats,
        full: true,
        perturb: std::env::var(PERTURB_ENV).ok(),
    };
    graphs
        .iter()
        .map(|graph| capture_profile(graph, &options))
        .collect()
}

/// Summarises one baseline capture as a trajectory point.
fn trajectory_point(profiles: &[Profile], unix_s: u64) -> String {
    let counters: u64 = profiles
        .iter()
        .flat_map(|p| p.counters.iter().map(|(_, v)| *v))
        .sum();
    let shared: u64 = profiles.iter().map(|p| p.outcomes.shared_bufmem).sum();
    let nonshared: u64 = profiles.iter().map(|p| p.outcomes.nonshared_bufmem).sum();
    let median_total_us: f64 = profiles
        .iter()
        .filter_map(|p| {
            p.timings
                .iter()
                .find(|(n, _)| n == "engine.total")
                .map(|(_, stat)| stat.median_us)
        })
        .sum();
    json::object(|w| {
        w.num("unix_s", unix_s)
            .num("graphs", profiles.len())
            .num("counter_total", counters)
            .num("shared_bufmem_total", shared)
            .num("nonshared_bufmem_total", nonshared)
            .fixed("engine_total_us", median_total_us, 3);
    })
}

/// `--baseline DIR`: refresh the committed corpus and extend the
/// trajectory.
fn run_baseline(dir: &str, graphs_dir: &str, repeats: u32, out_path: &str) -> Result<(), String> {
    let graphs = load_corpus(graphs_dir)?;
    let profiles = capture_corpus(&graphs, repeats)?;
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
    for profile in &profiles {
        let path = format!("{dir}/{}.json", profile.graph);
        std::fs::write(&path, profile.to_json())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!(
            "baseline {}: {} counters, shared {} / non-shared {} words",
            profile.graph,
            profile.counters.len(),
            profile.outcomes.shared_bufmem,
            profile.outcomes.nonshared_bufmem
        );
    }
    let point = trajectory_point(&profiles, sdf_bench::unix_s());
    sdf_bench::trajectory_append(out_path, "engine_sweep", &[point])?;
    eprintln!(
        "wrote {} baselines to {dir}, trajectory point to {out_path}",
        profiles.len()
    );
    Ok(())
}

/// `--gate DIR`: re-capture and diff against the committed corpus.
/// Returns the per-graph reports; any gate failure fails the run.
fn run_gate(dir: &str, graphs_dir: &str, repeats: u32, report_path: &str) -> Result<bool, String> {
    let graphs = load_corpus(graphs_dir)?;
    let candidates = capture_corpus(&graphs, repeats)?;
    let options = DiffOptions::default();
    let mut reports: Vec<RegressionReport> = Vec::new();
    let mut missing: Vec<String> = Vec::new();
    for candidate in &candidates {
        let path = format!("{dir}/{}.json", candidate.graph);
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(_) => {
                // A new example graph with no committed baseline yet is
                // reported, not gated — the next --baseline run adopts it.
                missing.push(candidate.graph.clone());
                continue;
            }
        };
        let baseline = Profile::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        reports.push(diff(&baseline, candidate, &options));
    }
    let failures: usize = reports.iter().map(RegressionReport::gate_failures).sum();
    let mut md = String::from("# Regression sentinel report\n\n");
    md.push_str(&format!(
        "Corpus: {} graph(s), {} with committed baselines; {} gate failure(s).\n\n",
        candidates.len(),
        reports.len(),
        failures
    ));
    for name in &missing {
        md.push_str(&format!(
            "> `{name}` has no committed baseline yet — run `engine_sweep --baseline` to adopt it.\n\n"
        ));
    }
    for report in &reports {
        md.push_str(&format!("## {}\n\n", report.graph));
        md.push_str(&report.to_markdown());
        md.push('\n');
    }
    std::fs::write(report_path, &md).map_err(|e| format!("cannot write {report_path}: {e}"))?;
    for report in &reports {
        eprint!("{}", report.to_text());
    }
    eprintln!("wrote {report_path}");
    Ok(failures == 0)
}

/// The classic serial-vs-parallel sweep, writing the bench artifact.
/// It never replaces a `bench_trajectory` file: that history is only
/// ever appended to, by `--baseline`.
fn run_sweep(min_actors: usize, repeats: u32, out_path: &str) -> Result<(), String> {
    let existing = std::fs::read_to_string(out_path).unwrap_or_default();
    if json::parse(&existing)
        .is_ok_and(|doc| doc.get("kind").and_then(Json::as_str) == Some("bench_trajectory"))
    {
        return Err(format!(
            "{out_path} is a bench_trajectory document; the sweep will not overwrite it"
        ));
    }
    let mut graphs: Vec<SdfGraph> = table1_systems();
    // Grids give the parallel path enough per-candidate work to amortise
    // thread spawns.
    graphs.push(homogeneous_grid(12, 12));
    graphs.push(homogeneous_grid(16, 16));
    graphs.retain(|g| g.actor_count() >= min_actors);

    let mut samples = Vec::new();
    for graph in &graphs {
        samples.push(measure(graph, repeats));
    }

    std::fs::write(out_path, bench_json(&samples))
        .map_err(|e| format!("cannot write {out_path}: {e}"))?;
    eprintln!("wrote {out_path}");

    eprintln!();
    eprintln!(
        "{:>14} {:>12} {:>12} {:>8}",
        "system", "serial µs", "parallel µs", "speedup"
    );
    let (mut total_s, mut total_p) = (0u64, 0u64);
    for s in &samples {
        total_s += s.serial_ns;
        total_p += s.parallel_ns;
        eprintln!(
            "{:>14} {:>12.1} {:>12.1} {:>7.2}x",
            s.name,
            s.serial_ns as f64 / 1e3,
            s.parallel_ns as f64 / 1e3,
            s.serial_ns as f64 / s.parallel_ns as f64
        );
    }
    eprintln!(
        "{:>14} {:>12.1} {:>12.1} {:>7.2}x",
        "TOTAL",
        total_s as f64 / 1e3,
        total_p as f64 / 1e3,
        total_s as f64 / total_p as f64
    );
    Ok(())
}

fn real_main() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().collect();
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
    };
    let numeric = |name: &str, default: u64| -> Result<u64, String> {
        match flag(name) {
            Some(v) => v
                .parse::<u64>()
                .map_err(|_| format!("bad {name} value: `{v}` is not a number")),
            None => Ok(default),
        }
    };
    let min_actors = numeric("--min-actors", 0)? as usize;
    let repeats = numeric("--repeats", 5)?.clamp(1, 1_000) as u32;
    let out_path = flag("--out");
    let graphs_dir = flag("--graphs")
        .cloned()
        .unwrap_or("examples/graphs".to_string());
    let report_path = flag("--report-out")
        .cloned()
        .unwrap_or("regress-report.md".to_string());

    if let Some(dir) = flag("--baseline").cloned() {
        // Baseline captures default to 3 repeats unless asked otherwise.
        let repeats = numeric("--repeats", 3)?.clamp(1, 1_000) as u32;
        let out_path = out_path.map_or("BENCH_3.json", String::as_str);
        run_baseline(&dir, &graphs_dir, repeats, out_path)?;
        return Ok(true);
    }
    if let Some(dir) = flag("--gate").cloned() {
        let repeats = numeric("--repeats", 3)?.clamp(1, 1_000) as u32;
        return run_gate(&dir, &graphs_dir, repeats, &report_path);
    }
    run_sweep(
        min_actors,
        repeats,
        out_path.map_or("engine_sweep.json", String::as_str),
    )?;
    Ok(true)
}

fn main() {
    match real_main() {
        Ok(true) => {}
        Ok(false) => {
            eprintln!("regression gate FAILED");
            std::process::exit(1);
        }
        Err(message) => {
            eprintln!("error: {message}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_sweep_refuses_to_overwrite_a_trajectory() {
        let committed = concat!(env!("CARGO_MANIFEST_DIR"), "/../../bench/BENCH_3.json");
        let before = std::fs::read(committed).expect("committed trajectory");
        let dir = std::env::temp_dir().join(format!("engine-sweep-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let copy = dir.join("BENCH_3.json");
        std::fs::write(&copy, &before).expect("copy");
        let copy = copy.to_string_lossy().into_owned();
        let err = run_sweep(usize::MAX, 1, &copy).unwrap_err();
        assert!(err.contains("bench_trajectory"), "{err}");
        assert_eq!(std::fs::read(&copy).expect("copy"), before);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn trajectory_point_bytes_are_pinned() {
        let mut profile = Profile::new("fig2");
        profile.outcomes.shared_bufmem = 30;
        profile.counters = vec![("sched.dppo.cells".to_string(), 231)];
        profile.timings = vec![("engine.total".to_string(), Default::default())];
        profile.timings[0].1.median_us = 1_234.567_5;
        let mut second = profile.clone();
        second.outcomes.nonshared_bufmem = 2042;
        second.timings[0].1.median_us = 0.000_5;
        let expected = include_str!("../../../../tests/golden/json/bench_point_engine_sweep.json");
        assert_eq!(
            trajectory_point(&[profile, second], 1_792_200_119),
            expected
        );
    }
}
