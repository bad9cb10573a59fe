//! A fixed reference task, timed next to the in-process ops so that
//! host contention can be factored out of their CPU-bound timings.
//!
//! On a 2-CPU host shared with other tenants the same op can take twice
//! as long from one minute to the next. Contention slows the reference
//! task alike, so an op's wall time scaled by `REFERENCE_MS / task time`
//! stays put: over eight `scale` runs the scaled geometric mean spread
//! 0.6 % (IQR/median) where the wall-clock one spread 3.4 %, and a run
//! that ran 33 % slow on the wall clock read in line once scaled.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use crate::stats;

/// Duration of [`task_ms`] between compile ops on the host the benchmark
/// was calibrated on (a 2-CPU x86-64 VM; the run medians of twenty
/// `corpus` and `scale` runs lay between 0.40 and 0.54 ms), so scaled
/// times read close to that host's wall times.
pub const REFERENCE_MS: f64 = 0.4;

/// Runs the task and returns its wall time in milliseconds. The task
/// sorts 20 000 pseudo-random words and builds an ordered map from every
/// fourth one: allocation, comparisons and pointer chasing, as in a
/// compile op, and no code of the program under test. It runs once
/// untimed first, so what the previous op left in the caches does not
/// change the timed run.
pub fn task_ms() -> f64 {
    let task = || {
        let mut words: Vec<u64> = (0..20_000u64)
            .map(|k| k.wrapping_mul(2_654_435_761) % 1_000_003)
            .collect();
        words.sort_unstable();
        let map: BTreeMap<u64, u64> = words.iter().step_by(4).map(|&w| (w, w ^ 7)).collect();
        black_box(map.values().sum::<u64>())
    };
    task();
    let t = Instant::now();
    task();
    t.elapsed().as_secs_f64() * 1e3
}

/// The reference time for each of a series of samples: the median task
/// time within `radius` samples on either side, so a single preempted
/// task run does not rescale its op.
pub fn smoothed(task_ms: &[f64], radius: usize) -> Vec<f64> {
    (0..task_ms.len())
        .map(|i| {
            let lo = i.saturating_sub(radius);
            let hi = (i + radius + 1).min(task_ms.len());
            stats::median(&task_ms[lo..hi])
        })
        .collect()
}

/// A wall time at the reference speed, given the task time measured
/// beside it (any unit).
pub fn scaled(wall: f64, task_ms: f64) -> f64 {
    wall * REFERENCE_MS / task_ms
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_slow_task_run_does_not_rescale_its_neighbours() {
        assert_eq!(smoothed(&[1.0, 1.0, 9.0, 1.0, 1.0], 2), vec![1.0; 5]);
        assert_eq!(smoothed(&[2.0, 4.0], 4), vec![3.0, 3.0]);
        assert!(smoothed(&[], 4).is_empty());
    }

    #[test]
    fn a_slower_host_is_scaled_back() {
        assert!((scaled(10.0, 2.0 * REFERENCE_MS) - 5.0).abs() < 1e-12);
        assert!((scaled(10.0, REFERENCE_MS) - 10.0).abs() < 1e-12);
        assert!(task_ms() > 0.0);
    }
}
