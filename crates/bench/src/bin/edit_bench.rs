//! Benchmarks edit sessions on edit-heavy traffic:
//! a deterministic stream of small edits (delay tweaks and
//! ratio-preserving rate scalings) replayed through an
//! [`IncrementalSession`] over the `sdf_apps::scale` chain corpus, timed
//! against what a stateless daemon would pay — one cold
//! `AnalysisBuilder` run per edit.
//!
//! Every warm result is cross-checked against a cold run on the same
//! edited graph (`--verify all`), or only the stream's final state is
//! (`--verify final`, the default), so the speedup never comes at the
//! cost of a different answer.  One `bench_trajectory` point per size
//! tier is appended to `BENCH_9.json` (earlier points are kept).
//!
//! ```text
//! cargo run --release --bin edit_bench
//! cargo run --release --bin edit_bench -- --sizes 512 --verify all
//! cargo run --release --bin edit_bench -- --sizes 512 --stream bench/streams/edit_512.txt
//! cargo run --release --bin edit_bench -- --sizes 512 --emit-stream bench/streams/edit_512.txt
//! ```
//!
//! Stream files hold one edit per non-empty line (`#` starts a
//! comment), each line replayed as its own one-op [`EditScript`]; actor
//! names bind the file to the size it was generated for.  `--min-speedup
//! R` (default 10) asserts the warm-edit vs cold-run ratio at the
//! largest requested tier; `--budget-s` aborts if the whole run exceeds
//! the wall-clock budget.

use std::time::Instant;

use sdf_apps::scale::{scale_chain, SIZES};
use sdf_core::math::gcd;
use sdf_core::SdfGraph;
use sdf_trace::json;
use sdfmem::engine::{AnalysisBuilder, SynthesisOptions};
use sdfmem::incremental::{apply_edits, EditOp, EditScript, IncrementalSession};
use sdfmem::pipeline::Analysis;

fn us(from: Instant) -> f64 {
    from.elapsed().as_nanos() as f64 / 1e3
}

/// Generates `edits` single-op steps against `base` as do/undo pairs:
/// each even step changes one edge (a delay tweak in whole sink
/// firings, or a ratio-preserving rate scaling) and the following odd
/// step restores that same edge, so every step dirties exactly one
/// edge and the stream never drifts far from the base graph.  Pair
/// positions stride through the edge list coprime-style so consecutive
/// pairs touch distant subchains.
fn generate_stream(base: &SdfGraph, edits: usize) -> Vec<EditScript> {
    let edge_list: Vec<(String, String, u64, u64, u64)> = base
        .edges()
        .map(|(_, e)| {
            (
                base.actor_name(e.src).to_string(),
                base.actor_name(e.snk).to_string(),
                e.prod,
                e.cons,
                e.delay,
            )
        })
        .collect();
    let m = edge_list.len();
    let mut steps = Vec::with_capacity(edits);
    for k in 0..edits {
        let pair = k / 2;
        let (src, snk, prod, cons, delay) = edge_list[(pair * 37 + 11) % m].clone();
        let delay_pair = pair % 2 == 0;
        let op = if k % 2 == 0 {
            if delay_pair {
                EditOp::SetDelay {
                    src,
                    snk,
                    ordinal: 0,
                    delay: delay + cons * (pair as u64 % 3 + 1),
                }
            } else {
                let g = gcd(prod, cons);
                let f = pair as u64 % 2 + 2;
                EditOp::SetRate {
                    src,
                    snk,
                    ordinal: 0,
                    prod: prod / g * f,
                    cons: cons / g * f,
                }
            }
        } else if delay_pair {
            EditOp::SetDelay {
                src,
                snk,
                ordinal: 0,
                delay,
            }
        } else {
            EditOp::SetRate {
                src,
                snk,
                ordinal: 0,
                prod,
                cons,
            }
        };
        steps.push(EditScript { ops: vec![op] });
    }
    steps
}

/// Parses a stream file: one edit per non-empty line, `#` comments.
fn parse_stream(text: &str) -> Result<Vec<EditScript>, String> {
    let mut steps = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let op = EditOp::parse(line).map_err(|e| format!("stream line {}: {e}", i + 1))?;
        steps.push(EditScript { ops: vec![op] });
    }
    Ok(steps)
}

fn render_stream(steps: &[EditScript]) -> String {
    let mut s = String::from(
        "# edit_bench stream: one edit per line, replayed as single-op steps.\n\
         # Regenerate with: cargo run --release --bin edit_bench -- \
         --sizes <n> --emit-stream <path>\n",
    );
    for step in steps {
        for op in &step.ops {
            s.push_str(&op.to_string());
            s.push('\n');
        }
    }
    s
}

/// The warm result must match a cold engine run (default options, no
/// memo) on the same graph, down to the plan JSON bytes.
fn check_matches_cold(graph: &SdfGraph, warm: &Analysis, context: &str) -> Result<(), String> {
    let cold = AnalysisBuilder::default()
        .run(graph)
        .map_err(|e| format!("{context}: cold run failed: {e}"))?;
    let diverged = |what: &str| format!("{context}: warm result diverged from cold run at {what}");
    if warm.repetitions != cold.repetitions {
        return Err(diverged("repetitions"));
    }
    if warm.winner != cold.winner {
        return Err(diverged("winner"));
    }
    if warm.nonshared_bufmem != cold.nonshared_bufmem {
        return Err(diverged("nonshared bufmem"));
    }
    if warm.schedule != cold.schedule {
        return Err(diverged("schedule tree"));
    }
    if warm.allocation != cold.allocation {
        return Err(diverged("allocation"));
    }
    if warm.mco != cold.mco || warm.mcp != cold.mcp {
        return Err(diverged("clique bounds"));
    }
    let warm_json = warm
        .plan(graph)
        .map_err(|e| format!("{context}: warm plan: {e}"))?
        .to_json();
    let cold_json = cold
        .plan(graph)
        .map_err(|e| format!("{context}: cold plan: {e}"))?
        .to_json();
    if warm_json != cold_json {
        return Err(diverged("plan JSON bytes"));
    }
    Ok(())
}

/// Aggregate of one size tier: one session, one edit stream.
struct TierSample {
    n: usize,
    graph: String,
    edits: usize,
    cold_runs: usize,
    cold_total_us: f64,
    seed_us: f64,
    warm_total_us: f64,
    warm_max_us: f64,
    memo_hits: u64,
    memo_misses: u64,
    dirty_edges_total: u64,
    verify: Verify,
}

impl TierSample {
    fn cold_mean_us(&self) -> f64 {
        self.cold_total_us / self.cold_runs.max(1) as f64
    }
    fn warm_mean_us(&self) -> f64 {
        self.warm_total_us / self.edits.max(1) as f64
    }
    fn speedup(&self) -> f64 {
        self.cold_mean_us() / self.warm_mean_us()
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Verify {
    None,
    Final,
    All,
}

impl Verify {
    fn as_str(self) -> &'static str {
        match self {
            Verify::None => "none",
            Verify::Final => "final",
            Verify::All => "all",
        }
    }
}

fn measure_tier(n: usize, steps: &[EditScript], verify: Verify) -> Result<TierSample, String> {
    let base = scale_chain(n);
    let mut tier = TierSample {
        n,
        graph: base.name().to_string(),
        edits: steps.len(),
        cold_runs: 0,
        cold_total_us: 0.0,
        seed_us: 0.0,
        warm_total_us: 0.0,
        warm_max_us: 0.0,
        memo_hits: 0,
        memo_misses: 0,
        dirty_edges_total: 0,
        verify,
    };

    // The stateless-daemon baseline: one full engine run on the base
    // graph, exactly what every edit would cost without a session.
    let t = Instant::now();
    AnalysisBuilder::default()
        .run(&base)
        .map_err(|e| format!("n={n}: cold run failed: {e}"))?;
    tier.cold_total_us += us(t);
    tier.cold_runs += 1;
    eprintln!(
        "{:>16} n={:<5} cold {:>14.1}µs",
        tier.graph, n, tier.cold_total_us
    );

    let mut session = IncrementalSession::new(SynthesisOptions::default());
    let t = Instant::now();
    session
        .synthesize(&base)
        .map_err(|e| format!("n={n}: seeding failed: {e}"))?;
    tier.seed_us = us(t);

    // Shadow the session's graph so verification runs against exactly
    // the graph each step produced.
    let mut current = base;
    for (k, step) in steps.iter().enumerate() {
        current = apply_edits(&current, step)
            .map_err(|e| format!("n={n} edit {}: bad stream op: {e}", k + 1))?;
        let t = Instant::now();
        let result = session
            .apply_edits(step)
            .map_err(|e| format!("n={n} edit {}: delta run failed: {e}", k + 1))?;
        let warm_us = us(t);
        tier.warm_total_us += warm_us;
        tier.warm_max_us = tier.warm_max_us.max(warm_us);
        let s = &result.stats;
        if s.cold {
            return Err(format!("n={n} edit {}: session fell back to cold", k + 1));
        }
        tier.memo_hits += s.memo_hits;
        tier.memo_misses += s.memo_misses;
        tier.dirty_edges_total += s.dirty_edges;
        if verify == Verify::All || (verify == Verify::Final && k + 1 == steps.len()) {
            let t = Instant::now();
            check_matches_cold(&current, &result.analysis, &format!("n={n} edit {}", k + 1))?;
            tier.cold_total_us += us(t);
            tier.cold_runs += 1;
        }
        if (k + 1) % 8 == 0 || k + 1 == steps.len() {
            eprintln!(
                "{:>16} n={:<5} edit {:>3}/{}  warm {:>10.1}µs  dirty {}  memo {}h/{}m",
                tier.graph,
                n,
                k + 1,
                steps.len(),
                warm_us,
                s.dirty_edges,
                s.memo_hits,
                s.memo_misses,
            );
        }
    }
    Ok(tier)
}

/// One `bench_trajectory` point per tier, same envelope as the
/// engine-sweep trajectory.
fn trajectory_point(tier: &TierSample, unix_s: u64) -> String {
    json::object(|w| {
        w.num("unix_s", unix_s)
            .num("n", tier.n)
            .str("graph", &tier.graph)
            .num("edits", tier.edits)
            .num("cold_runs", tier.cold_runs)
            .fixed("cold_mean_us", tier.cold_mean_us(), 3)
            .fixed("seed_us", tier.seed_us, 3)
            .fixed("warm_total_us", tier.warm_total_us, 3)
            .fixed("warm_mean_us", tier.warm_mean_us(), 3)
            .fixed("warm_max_us", tier.warm_max_us, 3)
            .fixed("speedup", tier.speedup(), 3)
            .num("memo_hits", tier.memo_hits)
            .num("memo_misses", tier.memo_misses)
            .num("dirty_edges_total", tier.dirty_edges_total)
            .str("verify", tier.verify.as_str());
    })
}

fn real_main() -> Result<(), String> {
    let args: Vec<String> = std::env::args().collect();
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
    };
    let sizes: Vec<usize> = match flag("--sizes") {
        Some(list) => list
            .split(',')
            .map(|tok| {
                tok.trim()
                    .parse::<usize>()
                    .map_err(|_| format!("bad --sizes entry `{tok}`"))
            })
            .collect::<Result<_, _>>()?,
        None => SIZES.to_vec(),
    };
    let edits: usize = match flag("--edits") {
        Some(v) => v.parse().map_err(|_| format!("bad --edits value `{v}`"))?,
        None => 32,
    };
    let verify = match flag("--verify").map(String::as_str) {
        None | Some("final") => Verify::Final,
        Some("all") => Verify::All,
        Some("none") => Verify::None,
        Some(v) => return Err(format!("bad --verify value `{v}` (none|final|all)")),
    };
    let min_speedup: f64 = match flag("--min-speedup") {
        Some(v) => v
            .parse()
            .map_err(|_| format!("bad --min-speedup value `{v}`"))?,
        None => 10.0,
    };
    let budget_s: Option<u64> = match flag("--budget-s") {
        Some(v) => Some(
            v.parse()
                .map_err(|_| format!("bad --budget-s value `{v}`"))?,
        ),
        None => None,
    };
    let out_path = flag("--out").cloned().unwrap_or("BENCH_9.json".to_string());
    let stream_in = flag("--stream").cloned();
    let stream_out = flag("--emit-stream").cloned();
    if (stream_in.is_some() || stream_out.is_some()) && sizes.len() != 1 {
        return Err("--stream/--emit-stream need exactly one --sizes entry \
                    (actor names bind a stream to its size)"
            .to_string());
    }

    let started = Instant::now();
    let mut tiers = Vec::new();
    for &n in &sizes {
        let steps = match &stream_in {
            Some(path) => {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read {path}: {e}"))?;
                parse_stream(&text)?
            }
            None => generate_stream(&scale_chain(n), edits),
        };
        if let Some(path) = &stream_out {
            std::fs::write(path, render_stream(&steps))
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("wrote {path} ({} edits)", steps.len());
        }
        tiers.push(measure_tier(n, &steps, verify)?);
        if let Some(budget) = budget_s {
            if started.elapsed().as_secs() > budget {
                return Err(format!(
                    "wall-clock budget exceeded: {}s > {budget}s after tier n={n}",
                    started.elapsed().as_secs()
                ));
            }
        }
    }

    let unix_s = sdf_bench::unix_s();
    let points: Vec<String> = tiers.iter().map(|t| trajectory_point(t, unix_s)).collect();
    sdf_bench::trajectory_append(&out_path, "edit_bench", &points)?;
    eprintln!("appended {} points to {out_path}", points.len());

    eprintln!();
    eprintln!(
        "{:>6} {:>6} {:>14} {:>14} {:>8} {:>12}",
        "n", "edits", "cold µs", "warm mean µs", "speedup", "memo h/m"
    );
    for tier in &tiers {
        eprintln!(
            "{:>6} {:>6} {:>14.1} {:>14.1} {:>7.1}x {:>8}/{}",
            tier.n,
            tier.edits,
            tier.cold_mean_us(),
            tier.warm_mean_us(),
            tier.speedup(),
            tier.memo_hits,
            tier.memo_misses,
        );
    }

    // The headline gate: warm edits at the largest tier must be at
    // least `min_speedup` times cheaper than the stateless cold run.
    if let Some(largest) = tiers.iter().max_by_key(|t| t.n) {
        let speedup = largest.speedup();
        if speedup < min_speedup {
            return Err(format!(
                "warm-edit speedup {speedup:.2}x at n={} below required {min_speedup}x",
                largest.n
            ));
        }
        eprintln!(
            "speedup gate: {speedup:.2}x >= {min_speedup}x at n={} ✓",
            largest.n
        );
        if largest.memo_hits == 0 {
            return Err(format!(
                "no memo hits across {} edits at n={} — memoization is dead",
                largest.edits, largest.n
            ));
        }
    }
    Ok(())
}

fn main() {
    if let Err(message) = real_main() {
        eprintln!("error: {message}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trajectory_point_bytes_are_pinned() {
        let tier = TierSample {
            n: 128,
            graph: "scale_chain_128".to_string(),
            edits: 32,
            cold_runs: 2,
            cold_total_us: 157_461.842_5,
            seed_us: 24_578.326,
            warm_total_us: 299_823.713,
            warm_max_us: 30_129.942,
            memo_hits: 94_596,
            memo_misses: 32_192,
            dirty_edges_total: 32,
            verify: Verify::Final,
        };
        let expected = include_str!("../../../../tests/golden/json/bench_point_edit_bench.json");
        assert_eq!(trajectory_point(&tier, 1_786_166_032), expected);
    }
}
