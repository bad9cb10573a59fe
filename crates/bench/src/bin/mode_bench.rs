//! Benchmarks the multi-mode shared pool: every registered mode graph
//! is synthesised with [`sdfmem::modes::synthesize_modes`] and the
//! merged cross-mode pool is compared against what separate per-mode
//! pools would cost.  One `bench_trajectory` point per mode graph is
//! appended to `BENCH_10.json`, keeping earlier points (the committed
//! copy lives at `bench/BENCH_10.json`).
//!
//! ```text
//! cargo run --release --bin mode_bench
//! cargo run --release --bin mode_bench -- --out bench/BENCH_10.json
//! cargo run --release --bin mode_bench -- --min-savings 10
//! ```
//!
//! The run fails if any mode graph's transition oracle reports a
//! violation, if the merged pool exceeds its `max + persistent` gate,
//! or if the headline saving falls below `--min-savings` percent
//! (default 5) on any graph — the merged pool must stay strictly
//! cheaper than per-mode pools, or the multi-mode layer has regressed.

use std::time::Instant;

use sdf_apps::modes::mode_graphs;
use sdf_trace::json;
use sdfmem::modes::{synthesize_modes, ModeSynthesis};

struct Sample {
    name: String,
    synth: ModeSynthesis,
    synth_us: f64,
}

fn point(sample: &Sample, unix_s: u64) -> String {
    let s = &sample.synth;
    json::object(|w| {
        w.num("unix_s", unix_s)
            .str("graph", &sample.name)
            .num("modes", s.summaries.len())
            .num("persistent", s.plan.persistent.len())
            .num("merged_pool_words", s.merged_pool_words)
            .num("sum_pool_words", s.sum_pool_words)
            .num("max_pool_words", s.max_pool_words)
            .num("persistent_words", s.persistent_words)
            .num("gate_bound", s.gate_bound)
            .bool("gate_ok", s.gate_ok)
            .fixed("savings_percent", s.savings_percent(), 2)
            .bool("clean", s.exec.is_ok())
            .fixed("synth_us", sample.synth_us, 3);
    })
}

fn real_main() -> Result<(), String> {
    let args: Vec<String> = std::env::args().collect();
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
    };
    let out_path = flag("--out")
        .cloned()
        .unwrap_or("BENCH_10.json".to_string());
    let min_savings: f64 = match flag("--min-savings") {
        Some(v) => v
            .parse()
            .map_err(|_| format!("bad --min-savings value `{v}`"))?,
        None => 5.0,
    };

    let mut samples = Vec::new();
    for (name, mg) in mode_graphs() {
        let started = Instant::now();
        let synth = synthesize_modes(&mg).map_err(|e| format!("{name}: {e}"))?;
        let synth_us = started.elapsed().as_nanos() as f64 / 1e3;
        samples.push(Sample {
            name: name.to_string(),
            synth,
            synth_us,
        });
    }

    let unix_s = sdf_bench::unix_s();
    let points: Vec<String> = samples.iter().map(|s| point(s, unix_s)).collect();
    sdf_bench::trajectory_append(&out_path, "mode_bench", &points)?;
    eprintln!("appended {} points to {out_path}", points.len());

    eprintln!();
    eprintln!(
        "{:>18} {:>6} {:>10} {:>10} {:>10} {:>9} {:>6}",
        "graph", "modes", "merged", "sum", "gate", "savings", "clean"
    );
    for sample in &samples {
        let s = &sample.synth;
        eprintln!(
            "{:>18} {:>6} {:>10} {:>10} {:>10} {:>8.1}% {:>6}",
            sample.name,
            s.summaries.len(),
            s.merged_pool_words,
            s.sum_pool_words,
            s.gate_bound,
            s.savings_percent(),
            if s.exec.is_ok() { "yes" } else { "NO" },
        );
    }

    // Gates: every graph must transition cleanly, respect the merged
    // pool bound, and beat the savings floor.
    for sample in &samples {
        let s = &sample.synth;
        if let Err(e) = &s.exec {
            return Err(format!("{}: transition oracle violation: {e}", sample.name));
        }
        if !s.gate_ok {
            return Err(format!(
                "{}: merged pool {} exceeds its gate {} (max {} + persistent {})",
                sample.name,
                s.merged_pool_words,
                s.gate_bound,
                s.max_pool_words,
                s.persistent_words
            ));
        }
        if s.savings_percent() < min_savings {
            return Err(format!(
                "{}: savings {:.1}% below required {min_savings}% \
                 (merged {} vs separate pools {})",
                sample.name,
                s.savings_percent(),
                s.merged_pool_words,
                s.sum_pool_words
            ));
        }
    }
    eprintln!("savings gate: every mode graph >= {min_savings}% ✓");
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
    fn point_bytes_are_pinned() {
        let (name, mg) = mode_graphs().into_iter().next().expect("a mode graph");
        let sample = Sample {
            name: name.to_string(),
            synth: synthesize_modes(&mg).expect("synthesis"),
            synth_us: 241.127_5,
        };
        let expected = include_str!("../../../../tests/golden/json/bench_point_mode_bench.json");
        assert_eq!(point(&sample, 1_786_168_194), expected);
    }
}
