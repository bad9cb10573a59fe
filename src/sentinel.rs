//! Capture side of the regression sentinel: runs the engine under a
//! recorder and distils the run into an [`sdf_regress::Profile`].
//!
//! The capture is always **serial** — per-candidate counter attribution
//! and stable lattice ordering need one thread's work alone — and records
//! on a thread-scoped recorder ([`sdf_trace::scoped_thread`]), so work on
//! other threads of the process never bleeds into its counters. It
//! repeats the run [`CaptureOptions::repeats`] times so
//! the profile's timings carry a median and a MAD noise band. The work
//! counters must come out identical on every repeat (they are
//! deterministic functions of the graph); a mismatch aborts the capture
//! with the first differing counter named, because a baseline recorded
//! from a nondeterministic run would gate on noise forever after.

use std::sync::Arc;

use sdf_alloc::{allocate_with_provenance, PlacementPolicy};
use sdf_core::graph::SdfGraph;
use sdf_regress::{Outcomes, Profile, TimingStat};
use sdf_trace::Recorder;

use crate::engine::{AnalysisBuilder, Synthesis};

/// Environment variable holding a perturbation spec (`name=+N`,
/// `name=-N` or `name=N`) that capture front ends apply to the profile
/// via [`Profile::apply_perturbation`]. This is the acceptance test
/// hook: inject a counter change, watch `sdfmem compare` trip the gate.
pub const PERTURB_ENV: &str = "SDF_REGRESS_PERTURB";

/// Configuration of one profile capture.
#[derive(Clone, Debug)]
pub struct CaptureOptions {
    /// How many times to repeat the run for the timing statistics.
    pub repeats: u32,
    /// Sweep every loop-optimizer variant instead of SDPPO only.
    pub full: bool,
    /// Perturbation spec applied to the finished profile (the test
    /// hook; see [`PERTURB_ENV`]).
    pub perturb: Option<String>,
}

impl Default for CaptureOptions {
    fn default() -> Self {
        CaptureOptions {
            repeats: 3,
            full: false,
            perturb: None,
        }
    }
}

/// Timing series accumulated across repeats, keyed by stat name.
struct TimingSeries {
    names: Vec<&'static str>,
    samples: Vec<Vec<u64>>,
}

impl TimingSeries {
    fn new(names: Vec<&'static str>) -> TimingSeries {
        let samples = names.iter().map(|_| Vec::new()).collect();
        TimingSeries { names, samples }
    }

    fn push(&mut self, name: &str, sample_ns: u64) {
        let slot = self
            .names
            .iter()
            .position(|n| *n == name)
            .expect("known stat");
        self.samples[slot].push(sample_ns);
    }

    fn finish(self) -> Vec<(String, TimingStat)> {
        let mut out: Vec<(String, TimingStat)> = self
            .names
            .iter()
            .zip(&self.samples)
            .map(|(name, samples)| (name.to_string(), TimingStat::from_samples_ns(samples)))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }
}

fn winner_of(synthesis: &Synthesis) -> String {
    let w = &synthesis.report.candidates[synthesis.report.winner];
    format!(
        "{}/{}/{}",
        w.heuristic.as_str(),
        w.loop_opt.as_str(),
        w.allocation_order.as_str()
    )
}

/// Captures a regression-sentinel profile for `graph`.
///
/// # Errors
///
/// Returns a readable message when the engine fails on the graph or the
/// work counters differ between repeats (a nondeterministic pipeline
/// must not become a baseline).
pub fn capture_profile(graph: &SdfGraph, options: &CaptureOptions) -> Result<Profile, String> {
    let repeats = options.repeats.max(1);
    let mut timings = TimingSeries::new(vec![
        "engine.total",
        "engine.repetitions",
        "stage.schedule",
        "stage.lifetime",
        "stage.wig",
        "stage.alloc",
    ]);
    let mut counters: Option<Vec<(String, u64)>> = None;
    let mut outcomes = Outcomes::default();
    for repeat in 0..repeats {
        let builder = AnalysisBuilder::new().parallel(false).full(options.full);
        let recorder = Arc::new(Recorder::new());
        // The capture covers the full product, not just the analysis:
        // the winner is lowered to its `ExecutablePlan` and executed by
        // the interpreter oracle inside the same recorder scope, so the
        // `codegen.*` / `exec.*` counters join the baseline and every
        // baseline graph is re-proven safe on each capture.
        let synthesis = sdf_trace::scoped_thread(&recorder, || -> Result<_, String> {
            let synthesis = builder
                .run_full(graph)
                .map_err(|e| format!("engine failed on {}: {e}", graph.name()))?;
            let plan = synthesis
                .plan(graph)
                .map_err(|e| format!("plan lowering failed on {}: {e}", graph.name()))?;
            sdf_codegen::execute_plan(&plan)
                .map_err(|e| format!("plan execution failed on {}: {e}", graph.name()))?;
            Ok(synthesis)
        })?;
        let report = &synthesis.report;
        let run_counters = recorder.counters();
        timings.push("engine.total", report.total_ns);
        timings.push("engine.repetitions", report.repetitions_ns);
        let mut stages = [0u64; 4];
        for c in &report.candidates {
            stages[0] += c.timings.schedule_ns;
            stages[1] += c.timings.lifetime_ns;
            stages[2] += c.timings.wig_ns;
            stages[3] += c.timings.alloc_ns;
        }
        timings.push("stage.schedule", stages[0]);
        timings.push("stage.lifetime", stages[1]);
        timings.push("stage.wig", stages[2]);
        timings.push("stage.alloc", stages[3]);
        match &counters {
            None => {
                counters = Some(run_counters);
                // The last lattice row's fragmentation, replayed outside
                // the recorder. The last-writer gauge would follow which
                // cells were evaluated, and a copied row evaluates none.
                let last = synthesis.candidates.last().expect("at least one candidate");
                let fragmentation = allocate_with_provenance(
                    &*last.wig,
                    last.allocation_order,
                    PlacementPolicy::FirstFit,
                )
                .1
                .fragmentation_words();
                outcomes = Outcomes {
                    shared_bufmem: synthesis.analysis.shared_total(),
                    nonshared_bufmem: synthesis.analysis.nonshared_bufmem,
                    fragmentation,
                    winner: winner_of(&synthesis),
                    candidates: report.candidates.len() as u64,
                };
            }
            Some(first) => {
                if *first != run_counters {
                    let culprit = first
                        .iter()
                        .zip(&run_counters)
                        .find(|(a, b)| a != b)
                        .map(|(a, _)| a.0.clone())
                        .unwrap_or_else(|| "counter set".to_string());
                    return Err(format!(
                        "{}: counters are not deterministic across repeats \
                         (`{culprit}` differs between repeat 1 and repeat {}); \
                         refusing to record a baseline from a nondeterministic run",
                        graph.name(),
                        repeat + 1
                    ));
                }
            }
        }
    }
    let mut profile = Profile {
        graph: graph.name().to_string(),
        actors: graph.actor_count() as u64,
        edges: graph.edge_count() as u64,
        repeats,
        full: options.full,
        outcomes,
        counters: counters.unwrap_or_default(),
        timings: timings.finish(),
    };
    if let Some(spec) = &options.perturb {
        profile
            .apply_perturbation(spec)
            .map_err(|e| format!("bad {PERTURB_ENV} spec: {e}"))?;
    }
    Ok(profile)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdf_apps::satrec::satellite_receiver;
    use sdf_regress::{diff, DiffOptions};

    #[test]
    fn capture_is_reproducible_and_diffs_clean() {
        let graph = satellite_receiver();
        let options = CaptureOptions {
            repeats: 2,
            ..CaptureOptions::default()
        };
        let a = capture_profile(&graph, &options).expect("capture a");
        let b = capture_profile(&graph, &options).expect("capture b");
        assert_eq!(a.graph, "satrec");
        assert!(!a.counters.is_empty());
        // The capture runs the plan oracle too, so the lowering and
        // execution counters are part of the baseline.
        for required in ["codegen.plan.ops", "exec.firings", "exec.peak_live_bytes"] {
            assert!(
                a.counters.iter().any(|(n, v)| n == required && *v > 0),
                "missing counter {required}: {:?}",
                a.counters
            );
        }
        assert!(a.outcomes.shared_bufmem > 0);
        assert!(a.outcomes.shared_bufmem <= a.outcomes.nonshared_bufmem);
        assert!(a.outcomes.winner.contains('/'), "{}", a.outcomes.winner);
        assert!(a.timings.iter().any(|(n, _)| n == "engine.total"));
        let report = diff(&a, &b, &DiffOptions::default());
        assert!(report.is_clean(), "{}", report.to_text());
    }

    #[test]
    fn perturbed_capture_trips_the_gate() {
        let graph = satellite_receiver();
        let baseline = capture_profile(&graph, &CaptureOptions::default()).expect("baseline");
        let perturbed = capture_profile(
            &graph,
            &CaptureOptions {
                perturb: Some("sched.dppo.cells=+100".to_string()),
                ..CaptureOptions::default()
            },
        )
        .expect("perturbed");
        let report = diff(&baseline, &perturbed, &DiffOptions::default());
        assert_eq!(report.gate_failures(), 1);
        assert!(report.to_text().contains("sched.dppo.cells"));
    }

    #[test]
    fn full_capture_covers_the_wider_lattice() {
        let graph = satellite_receiver();
        let narrow = capture_profile(&graph, &CaptureOptions::default()).expect("narrow");
        let full = capture_profile(
            &graph,
            &CaptureOptions {
                full: true,
                ..CaptureOptions::default()
            },
        )
        .expect("full");
        assert!(full.outcomes.candidates > narrow.outcomes.candidates);
        // Mixing a full and a narrow capture is flagged, not silently
        // compared.
        let report = diff(&narrow, &full, &DiffOptions::default());
        assert!(!report.is_clean());
        assert!(report.to_text().contains("full"));
    }

    #[test]
    fn bad_perturbation_spec_is_reported() {
        let graph = satellite_receiver();
        let err = capture_profile(
            &graph,
            &CaptureOptions {
                perturb: Some("no-equals-sign".to_string()),
                ..CaptureOptions::default()
            },
        )
        .unwrap_err();
        assert!(err.contains(PERTURB_ENV), "{err}");
    }
}
