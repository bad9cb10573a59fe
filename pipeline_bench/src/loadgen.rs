//! Open-loop load generation: Poisson arrivals, Zipf key popularity,
//! due-time accounting and the rate bisection.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use rand::RngCore;

/// A uniform draw from (0, 1].
fn unit<R: RngCore>(rng: &mut R) -> f64 {
    ((rng.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64
}

/// Due offsets of a Poisson process at `rate` per second over `span`.
pub fn poisson_dues<R: RngCore>(rng: &mut R, rate: f64, span: Duration) -> Vec<Duration> {
    let end = span.as_secs_f64();
    let mut t = 0.0;
    let mut dues = Vec::new();
    loop {
        t += -unit(rng).ln() / rate;
        if t >= end {
            return dues;
        }
        dues.push(Duration::from_secs_f64(t));
    }
}

/// Zipf popularity over `n` ranks: rank `k` (0-based) has weight
/// `1 / (k + 1)^s`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The distribution over `n ≥ 1` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut total = 0.0;
        let cdf = (1..=n)
            .map(|k| {
                total += (k as f64).powf(-s);
                total
            })
            .collect();
        Zipf { cdf }
    }

    /// Draws a rank.
    pub fn sample<R: RngCore>(&self, rng: &mut R) -> usize {
        let u = unit(rng) * self.cdf.last().copied().unwrap_or(0.0);
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// One request's timing in an open loop.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Completion time measured from the request's due time.
    pub latency: Duration,
    /// How long after its due time the request was sent.
    pub lag: Duration,
    /// Completion offset from the start of the phase.
    pub done: Duration,
    /// Whether the response was a success.
    pub ok: bool,
}

/// Runs one open-loop phase. Request `i` is due `dues[i]` after the
/// start. Each of `workers` threads owns one connection, takes the next
/// request in due order, waits for its due time, sends it and blocks for
/// the reply; `send(worker, i)` is the timed round trip and `check(i, r)`
/// inspects its result untimed. A request still unsent once `cutoff` has
/// elapsed is abandoned and left `None`.
pub fn open_loop<R>(
    dues: &[Duration],
    workers: usize,
    cutoff: Duration,
    send: impl Fn(usize, usize) -> R + Sync,
    check: impl Fn(usize, R) -> bool + Sync,
) -> Vec<Option<Sample>> {
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Sample>>> = dues.iter().map(|_| Mutex::new(None)).collect();
    let start = Instant::now();
    std::thread::scope(|s| {
        for worker in 0..workers {
            let (cursor, slots, send, check) = (&cursor, &slots, &send, &check);
            s.spawn(move || loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= dues.len() || start.elapsed() >= cutoff {
                    break;
                }
                let due = start + dues[i];
                let now = Instant::now();
                if now < due {
                    std::thread::sleep(due - now);
                }
                let sent = Instant::now();
                let reply = send(worker, i);
                let done = Instant::now();
                let ok = check(i, reply);
                *slots[i].lock().expect("sample slot poisoned") = Some(Sample {
                    latency: done.saturating_duration_since(due),
                    lag: sent.saturating_duration_since(due),
                    done: done - start,
                    ok,
                });
            });
        }
    });
    slots
        .into_iter()
        .map(|m| m.into_inner().expect("sample slot poisoned"))
        .collect()
}

/// Latencies in milliseconds, with each abandoned request counted at the
/// time it had waited when its phase ended (a lower bound).
pub fn latencies_ms(dues: &[Duration], samples: &[Option<Sample>], span: Duration) -> Vec<f64> {
    dues.iter()
        .zip(samples)
        .map(|(due, s)| match s {
            Some(s) => ms(s.latency),
            None => ms(span.saturating_sub(*due)),
        })
        .collect()
}

/// Whether a ladder step meets `limit`: at most 5 % of its requests miss
/// the limit (failed and abandoned requests always miss), and the last
/// request completes within `limit` of the step's end.
pub fn step_passes(samples: &[Option<Sample>], span: Duration, limit: Duration) -> bool {
    let misses = samples
        .iter()
        .filter(|s| s.is_none_or(|s| !s.ok || s.latency > limit))
        .count();
    let last_done = samples
        .iter()
        .flatten()
        .map(|s| s.done)
        .max()
        .unwrap_or_default();
    misses as f64 <= 0.05 * samples.len() as f64 && last_done <= span + limit
}

/// Log-scale bisection over `[lo, hi]` with `steps` probes of `passes`.
/// Returns the highest rate that passed, or `lo` when none did.
pub fn bisect(lo: f64, hi: f64, steps: usize, mut passes: impl FnMut(f64) -> bool) -> f64 {
    let (mut lo, mut hi) = (lo, hi);
    for _ in 0..steps {
        let mid = (lo * hi).sqrt();
        if passes(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Milliseconds of a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn a_stall_delays_every_later_request_and_shows_as_lag() {
        // Due every 10 ms on one connection; request 2 stalls 150 ms.
        let dues: Vec<Duration> = (0..6).map(|i| Duration::from_millis(10 * i)).collect();
        let samples = open_loop(
            &dues,
            1,
            Duration::from_secs(10),
            |_, i| {
                if i == 2 {
                    std::thread::sleep(Duration::from_millis(150));
                }
            },
            |_, ()| true,
        );
        let s: Vec<Sample> = samples.into_iter().map(|s| s.expect("sent")).collect();
        assert!(s[2].latency >= Duration::from_millis(150));
        for later in &s[3..] {
            // Due 10–30 ms after the stalled request but sent only once
            // it returned: the wait is charged to the later requests.
            assert!(later.lag >= Duration::from_millis(100), "{later:?}");
            assert!(later.latency >= later.lag);
        }
        let lags: Vec<f64> = s.iter().map(|x| ms(x.lag)).collect();
        assert!(crate::stats::percentile(&crate::stats::sorted(&lags), 95.0) >= 100.0);
        assert!(step_passes(
            &samples_of(&s),
            Duration::from_millis(60),
            Duration::from_secs(1)
        ));
        assert!(!step_passes(
            &samples_of(&s),
            Duration::from_millis(60),
            Duration::from_millis(50)
        ));
    }

    fn samples_of(s: &[Sample]) -> Vec<Option<Sample>> {
        s.iter().copied().map(Some).collect()
    }

    #[test]
    fn requests_unsent_at_the_cutoff_are_abandoned_and_miss() {
        let dues: Vec<Duration> = (0..4).map(|i| Duration::from_millis(5 * i)).collect();
        let samples = open_loop(
            &dues,
            1,
            Duration::from_millis(50),
            |_, _| std::thread::sleep(Duration::from_millis(80)),
            |_, ()| true,
        );
        assert!(samples[0].is_some());
        assert!(samples[1..].iter().all(Option::is_none));
        assert!(!step_passes(
            &samples,
            Duration::from_millis(50),
            Duration::from_secs(1)
        ));
        let lat = latencies_ms(&dues, &samples, Duration::from_millis(50));
        assert!((lat[3] - 35.0).abs() < 1e-9);
    }

    #[test]
    fn bisection_converges_on_a_synthetic_latency_curve() {
        // p95 latency of an M/M/1-like server: 1/(capacity − rate).
        let capacity = 1_300.0;
        let limit = 0.1;
        let knee = capacity - 1.0 / limit; // 1290 req/s
        let mut probes = 0;
        let found = bisect(5.0, 20_000.0, 8, |rate| {
            probes += 1;
            rate < capacity && 1.0 / (capacity - rate) <= limit
        });
        assert_eq!(probes, 8);
        let resolution = (20_000.0f64 / 5.0).powf(1.0 / 256.0);
        assert!(found <= knee && found >= knee / resolution, "{found}");
        assert_eq!(bisect(5.0, 20_000.0, 8, |_| false), 5.0);
    }

    #[test]
    fn poisson_dues_are_seeded_and_sorted() {
        let a = poisson_dues(&mut StdRng::seed_from_u64(3), 50.0, Duration::from_secs(4));
        let b = poisson_dues(&mut StdRng::seed_from_u64(3), 50.0, Duration::from_secs(4));
        let c = poisson_dues(&mut StdRng::seed_from_u64(4), 50.0, Duration::from_secs(4));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!((150..250).contains(&a.len()), "{}", a.len());
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let zipf = Zipf::new(10, 1.1);
        let mut rng = StdRng::seed_from_u64(9);
        let mut counts = [0usize; 10];
        for _ in 0..10_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[9]);
        assert!(counts.iter().all(|&c| c > 0));
    }
}
