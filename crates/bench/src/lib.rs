//! The experiment pipeline shared by every benchmark binary.
//!
//! Reproduces the paper's Fig. 21 flow end-to-end: topological sort
//! (APGAN / RPMC / random) → loop hierarchy (DPPO for the non-shared
//! baseline, SDPPO for the shared model) → lifetime extraction →
//! intersection graph → clique estimates → first-fit allocation.

#![warn(missing_docs)]

use sdf_alloc::{allocate, validate_allocation, AllocationOrder, PlacementPolicy};
use sdf_core::error::SdfError;
use sdf_core::graph::{ActorId, SdfGraph};
use sdf_core::repetitions::RepetitionsVector;
use sdf_lifetime::clique::{mcw_optimistic, mcw_pessimistic};
use sdf_lifetime::tree::ScheduleTree;
use sdf_lifetime::wig::IntersectionGraph;
use sdf_sched::sdppo::FactoringPolicy;
use sdf_sched::{apgan, dppo, rpmc, sdppo_with_policy};
use sdf_trace::json::{self, Json};

/// Everything the paper's Table 1 reports for one (system, topological
/// sort) pair.
#[derive(Clone, Debug)]
pub struct PipelineResult {
    /// `bufmem` of the DPPO schedule — the non-shared baseline column.
    pub dppo: u64,
    /// The Eq. 5 cost of the SDPPO schedule (the `sdppo` column).
    pub sdppo: u64,
    /// Optimistic maximum-clique-weight estimate (`mco`).
    pub mco: u64,
    /// Pessimistic maximum-clique-weight estimate (`mcp`).
    pub mcp: u64,
    /// First-fit by descending duration (`ffdur`).
    pub ffdur: u64,
    /// First-fit by ascending start time (`ffstart`).
    pub ffstart: u64,
    /// Sum of all buffer sizes of the SDPPO schedule — what a non-shared
    /// implementation of the *same* schedule would need; an upper bound on
    /// any allocation.
    pub total_size: u64,
}

impl PipelineResult {
    /// The better of the two first-fit allocations.
    pub fn best_alloc(&self) -> u64 {
        self.ffdur.min(self.ffstart)
    }
}

/// Runs the full pipeline on one lexical order.
///
/// # Errors
///
/// Propagates scheduling errors (inconsistent order, cyclic graph, …); the
/// allocations are additionally validated for overlap-freedom before being
/// reported.
pub fn run_pipeline(
    graph: &SdfGraph,
    q: &RepetitionsVector,
    order: &[ActorId],
    policy: FactoringPolicy,
) -> Result<PipelineResult, SdfError> {
    let nonshared = dppo(graph, q, order)?;
    let shared = sdppo_with_policy(graph, q, order, policy)?;
    let tree = ScheduleTree::build(graph, q, &shared.tree)?;
    let wig = IntersectionGraph::build(graph, q, &tree);
    let ffdur = allocate(
        &wig,
        AllocationOrder::DurationDescending,
        PlacementPolicy::FirstFit,
    );
    validate_allocation(&wig, &ffdur)?;
    let ffstart = allocate(
        &wig,
        AllocationOrder::StartAscending,
        PlacementPolicy::FirstFit,
    );
    validate_allocation(&wig, &ffstart)?;
    Ok(PipelineResult {
        dppo: nonshared.bufmem,
        sdppo: shared.shared_cost,
        mco: mcw_optimistic(&wig),
        mcp: mcw_pessimistic(&wig),
        ffdur: ffdur.total(),
        ffstart: ffstart.total(),
        total_size: wig.total_size(),
    })
}

/// One row of Table 1: the pipeline on both heuristic orders plus the
/// BMLB and the headline improvement percentage.
#[derive(Clone, Debug)]
pub struct Table1Row {
    /// Benchmark name.
    pub name: String,
    /// Number of actors.
    pub actors: usize,
    /// The RPMC-ordered pipeline results.
    pub rpmc: PipelineResult,
    /// The APGAN-ordered pipeline results.
    pub apgan: PipelineResult,
    /// The non-shared SAS lower bound.
    pub bmlb: u64,
}

impl Table1Row {
    /// The best non-shared implementation: `min(dppo(R), dppo(A))`.
    pub fn best_nonshared(&self) -> u64 {
        self.rpmc.dppo.min(self.apgan.dppo)
    }

    /// The best shared implementation over the four allocation columns.
    pub fn best_shared(&self) -> u64 {
        self.rpmc.best_alloc().min(self.apgan.best_alloc())
    }

    /// The paper's improvement metric (last column of Table 1):
    /// `(best_nonshared − best_shared) / best_nonshared × 100`.
    pub fn improvement_percent(&self) -> f64 {
        let ns = self.best_nonshared();
        if ns == 0 {
            return 0.0;
        }
        (ns as f64 - self.best_shared() as f64) / ns as f64 * 100.0
    }
}

/// Runs the full Table 1 pipeline (RPMC and APGAN) on one system.
///
/// # Errors
///
/// Propagates any scheduling or consistency error.
pub fn run_table1_row(graph: &SdfGraph) -> Result<Table1Row, SdfError> {
    let q = RepetitionsVector::compute(graph)?;
    let rpmc_order = rpmc(graph, &q)?;
    let apgan_order = apgan(graph, &q)?;
    Ok(Table1Row {
        name: graph.name().to_string(),
        actors: graph.actor_count(),
        rpmc: run_pipeline(graph, &q, &rpmc_order, FactoringPolicy::Heuristic)?,
        apgan: run_pipeline(graph, &q, &apgan_order, FactoringPolicy::Heuristic)?,
        bmlb: sdf_core::bounds::bmlb(graph),
    })
}

/// Renders a row of values separated for terminal tables.
pub fn fmt_row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = *w))
        .collect::<Vec<_>>()
        .join("  ")
}

/// Draws a unit-width horizontal ASCII bar of `value` scaled so that
/// `max` maps to `width` characters.
pub fn ascii_bar(value: f64, max: f64, width: usize) -> String {
    if max <= 0.0 {
        return String::new();
    }
    let n = ((value / max) * width as f64).round().max(0.0) as usize;
    "#".repeat(n.min(width))
}

/// Seconds since the Unix epoch: the `unix_s` stamp of a trajectory
/// point.
pub fn unix_s() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// Appends `points` (each one serialised JSON object) to the
/// `bench_trajectory` document at `path`, so history accumulates and is
/// never overwritten. A missing file starts an empty trajectory stamped
/// with `bench`.
///
/// The file must parse as a document of kind `bench_trajectory`; every
/// byte up to its closing `]}` is kept and the new points are spliced
/// in before it. It may lack a `bench` member (early trajectories did),
/// but one naming a different bench is refused.
///
/// # Errors
///
/// Fails when the file is not a `bench_trajectory` document or belongs
/// to another bench, when the spliced document does not parse with
/// exactly the added points, or on I/O errors.
pub fn trajectory_append(path: &str, bench: &str, points: &[String]) -> Result<(), String> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            json::document("bench_trajectory", |w| {
                w.str("bench", bench).array("points", |_| {});
            })
        }
        Err(e) => return Err(format!("cannot read {path}: {e}")),
    };
    let point_count = |text: &str| -> Result<usize, String> {
        let doc = json::parse(text).map_err(|e| format!("{path}: {e}"))?;
        if doc.get("kind").and_then(Json::as_str) != Some("bench_trajectory") {
            return Err(format!("{path} is not a bench_trajectory document"));
        }
        match doc.get("bench").and_then(Json::as_str) {
            Some(other) if other != bench => {
                Err(format!("{path} is the `{other}` trajectory, not `{bench}`"))
            }
            _ => Ok(doc
                .get("points")
                .and_then(Json::as_array)
                .map_or(0, <[Json]>::len)),
        }
    };
    let before = point_count(&text)?;
    let open = text
        .trim_end()
        .strip_suffix("]}")
        .ok_or_else(|| format!("{path}: `points` is not the last member"))?;
    let separator = if open.ends_with('[') || points.is_empty() {
        ""
    } else {
        ","
    };
    let body = format!("{open}{separator}{}]}}\n", points.join(","));
    if point_count(&body) != Ok(before + points.len()) {
        return Err(format!(
            "{path}: spliced trajectory does not parse with the new points"
        ));
    }
    std::fs::write(path, body).map_err(|e| format!("cannot write {path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdf_apps::registry::by_name;

    #[test]
    fn satrec_row_reproduces_paper_shape() {
        let g = by_name("satrec").unwrap();
        let row = run_table1_row(&g).unwrap();
        // Shared must beat non-shared substantially (paper: 991 vs 1542).
        assert!(row.best_shared() < row.best_nonshared());
        assert!(row.improvement_percent() > 10.0, "{row:?}");
        // Allocation can never beat the optimistic clique bound's schedule-
        // specific floor by construction within one pipeline run.
        assert!(row.rpmc.ffdur >= row.rpmc.mco || row.rpmc.ffstart >= row.rpmc.mco);
    }

    #[test]
    fn estimates_bracket_allocation_per_order() {
        let g = by_name("qmf12_2d").unwrap();
        let row = run_table1_row(&g).unwrap();
        for r in [&row.rpmc, &row.apgan] {
            assert!(r.mco <= r.mcp, "{r:?}");
            // First-fit can exceed the clique estimates (chromatic number
            // above max clique weight), but never the non-shared total of
            // its own schedule.
            assert!(r.best_alloc() <= r.total_size, "{r:?}");
            assert!(
                r.best_alloc() >= r.mco.min(r.mcp) / 2,
                "implausibly small: {r:?}"
            );
        }
    }

    #[test]
    fn trajectory_append_keeps_history_and_refuses_foreign_files() {
        let dir = std::env::temp_dir().join(format!("sdf-bench-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let points = |path: &str| {
            let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
            doc.get("points")
                .and_then(Json::as_array)
                .map_or(0, <[Json]>::len)
        };
        let pair = ["{\"unix_s\":1}".to_string(), "{\"unix_s\":2}".to_string()];
        // The committed trajectories as they are: BENCH_3 has no `bench`
        // member, BENCH_9 an older schema version; every byte before the
        // closing `]}` survives, and a named bench refuses another's points.
        for (file, bench) in [
            ("BENCH_3.json", "engine_sweep"),
            ("BENCH_9.json", "edit_bench"),
            ("BENCH_10.json", "mode_bench"),
        ] {
            let committed = std::fs::read_to_string(format!(
                "{}/../../bench/{file}",
                env!("CARGO_MANIFEST_DIR")
            ))
            .unwrap();
            let path = dir.join(file).to_string_lossy().into_owned();
            std::fs::write(&path, &committed).unwrap();
            let before = points(&path);
            trajectory_append(&path, bench, &pair).unwrap();
            let kept = committed.trim_end().strip_suffix("]}").unwrap();
            assert!(
                std::fs::read_to_string(&path).unwrap().starts_with(kept),
                "{file}"
            );
            assert_eq!(points(&path), before + 2, "{file}");
            let foreign = trajectory_append(&path, "other_bench", &[]);
            assert_eq!(foreign.is_err(), committed.contains("\"bench\":"), "{file}");
        }
        // A missing file starts a trajectory; another document is refused.
        let path = dir.join("fresh.json").to_string_lossy().into_owned();
        std::fs::write(&path, "{\"kind\":\"engine_sweep\",\"points\":[]}").unwrap();
        assert!(trajectory_append(&path, "mode_bench", &pair[..1]).is_err());
        std::fs::remove_file(&path).unwrap();
        for round in 1..=2 {
            trajectory_append(&path, "mode_bench", &pair[..1]).unwrap();
            assert_eq!(points(&path), round);
        }
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn ascii_bar_scales() {
        assert_eq!(ascii_bar(50.0, 100.0, 10), "#####");
        assert_eq!(ascii_bar(0.0, 100.0, 10), "");
        assert_eq!(ascii_bar(200.0, 100.0, 10), "##########");
    }
}
