//! The baseline profile document: what one graph's synthesis run *does*,
//! snapshotted for later comparison.

use sdf_trace::json::{parse, Json};

/// Robust summary of repeated wall-time measurements: the median and the
/// median absolute deviation (MAD), both in microseconds.
///
/// The median ignores the occasional descheduled repeat entirely, and
/// the MAD gives [`crate::diff`] a noise band that widens exactly when
/// the machine was noisy at capture time.
///
/// # Examples
///
/// ```
/// use sdf_regress::TimingStat;
///
/// let stat = TimingStat::from_samples_ns(&[100_000, 110_000, 500_000]);
/// assert_eq!(stat.median_us, 110.0);
/// assert_eq!(stat.mad_us, 10.0);
/// assert_eq!(stat.samples, 3);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct TimingStat {
    /// Median of the samples, microseconds.
    pub median_us: f64,
    /// Median absolute deviation from the median, microseconds.
    pub mad_us: f64,
    /// How many samples went into the statistics.
    pub samples: u32,
}

impl TimingStat {
    /// Computes median and MAD from nanosecond samples. An empty slice
    /// yields the zero statistic.
    pub fn from_samples_ns(samples_ns: &[u64]) -> TimingStat {
        if samples_ns.is_empty() {
            return TimingStat::default();
        }
        let us: Vec<f64> = samples_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
        let median = median_of(us.clone());
        let deviations: Vec<f64> = us.iter().map(|v| (v - median).abs()).collect();
        TimingStat {
            median_us: median,
            mad_us: median_of(deviations),
            samples: samples_ns.len() as u32,
        }
    }
}

fn median_of(mut values: Vec<f64>) -> f64 {
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite timing"));
    let n = values.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// The allocation-quality results of a run — the numbers the paper's
/// Table 1 reports per system.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Outcomes {
    /// Winning shared pool size, words.
    pub shared_bufmem: u64,
    /// Best non-shared baseline over the swept orders, words.
    pub nonshared_bufmem: u64,
    /// Words skipped below first-fit placements in the last candidate
    /// row of the lattice.
    pub fragmentation: u64,
    /// Winning lattice point, `heuristic/loop_opt/allocation_order`.
    pub winner: String,
    /// Number of candidates the lattice sweep evaluated.
    pub candidates: u64,
}

/// A captured performance baseline for one graph (schema version 3).
///
/// Contains everything [`crate::diff`] gates on: deterministic work
/// counters, allocation outcomes, and median/MAD timings. Serialises to
/// a self-contained JSON document via [`Profile::to_json`] and parses
/// back (using the workspace's own `sdf_trace::json` parser) via
/// [`Profile::parse`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Profile {
    /// Graph name the profile was captured from.
    pub graph: String,
    /// Actor count at capture time.
    pub actors: u64,
    /// Edge count at capture time.
    pub edges: u64,
    /// How many repeats the timing statistics summarise.
    pub repeats: u32,
    /// Whether the capture swept every loop-optimizer variant.
    pub full: bool,
    /// Allocation outcomes.
    pub outcomes: Outcomes,
    /// Deterministic work counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Median/MAD timing statistics, sorted by name.
    pub timings: Vec<(String, TimingStat)>,
}

impl Profile {
    /// An empty profile for `graph` (used by tests and builders).
    pub fn new(graph: &str) -> Profile {
        Profile {
            graph: graph.to_string(),
            ..Profile::default()
        }
    }

    /// Looks up a counter value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Applies a perturbation spec — the regression-gate *test hook*.
    ///
    /// `spec` is `name=+N` / `name=-N` (adjust) or `name=N` (set); the
    /// named counter is created if absent. Capture front ends apply the
    /// `SDF_REGRESS_PERTURB` environment variable through this, so tests
    /// (and the acceptance check) can inject a counter change and watch
    /// the gate trip.
    ///
    /// # Errors
    ///
    /// Returns a message for a spec without `=` or a non-numeric amount.
    pub fn apply_perturbation(&mut self, spec: &str) -> Result<(), String> {
        let (name, amount) = spec
            .split_once('=')
            .ok_or_else(|| format!("perturbation `{spec}` is not name=value"))?;
        let value = |digits: &str| -> Result<u64, String> {
            digits
                .parse::<u64>()
                .map_err(|_| format!("perturbation amount `{amount}` is not a number"))
        };
        let index = match self.counters.iter().position(|(n, _)| n == name) {
            Some(i) => i,
            None => {
                self.counters.push((name.to_string(), 0));
                self.counters.sort();
                self.counters
                    .iter()
                    .position(|(n, _)| n == name)
                    .expect("just inserted")
            }
        };
        let slot = &mut self.counters[index].1;
        *slot = match amount.as_bytes().first() {
            Some(b'+') => slot.saturating_add(value(&amount[1..])?),
            Some(b'-') => slot.saturating_sub(value(&amount[1..])?),
            _ => value(amount)?,
        };
        Ok(())
    }

    /// Serialises the profile as a JSON document with the workspace's
    /// unified `kind` + `schema_version` envelope.
    pub fn to_json(&self) -> String {
        let mut s = sdf_trace::json::document("baseline_profile", |w| {
            w.str("graph", &self.graph)
                .num("actors", self.actors)
                .num("edges", self.edges)
                .num("repeats", self.repeats)
                .bool("full", self.full)
                .object("outcomes", |w| {
                    let o = &self.outcomes;
                    w.num("shared_bufmem", o.shared_bufmem)
                        .num("nonshared_bufmem", o.nonshared_bufmem)
                        .num("fragmentation", o.fragmentation)
                        .str("winner", &o.winner)
                        .num("candidates", o.candidates);
                })
                .counters("counters", &self.counters)
                .object("timings", |w| {
                    for (name, stat) in &self.timings {
                        w.object(name, |w| {
                            w.fixed("median_us", stat.median_us, 3)
                                .fixed("mad_us", stat.mad_us, 3)
                                .num("samples", stat.samples);
                        });
                    }
                });
        });
        s.push('\n');
        s
    }

    /// Parses a profile document produced by [`Profile::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a readable message on malformed JSON, a missing or
    /// foreign `schema_version`, the wrong `kind`, or missing sections.
    pub fn parse(text: &str) -> Result<Profile, String> {
        let doc = parse(text).map_err(|e| format!("invalid profile JSON: {e}"))?;
        let version = doc
            .get("schema_version")
            .and_then(Json::as_num)
            .ok_or("profile has no schema_version")?;
        if version != f64::from(sdf_trace::SCHEMA_VERSION) {
            return Err(format!(
                "profile schema_version {} is not the supported {}",
                version,
                sdf_trace::SCHEMA_VERSION
            ));
        }
        match doc.get("kind").and_then(Json::as_str) {
            Some("baseline_profile") => {}
            other => return Err(format!("document kind {other:?} is not baseline_profile")),
        }
        let str_of = |j: &Json, key: &str| -> Result<String, String> {
            j.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("profile is missing string `{key}`"))
        };
        let num_of = |j: &Json, key: &str| -> Result<u64, String> {
            j.get(key)
                .and_then(Json::as_num)
                .map(|n| n as u64)
                .ok_or_else(|| format!("profile is missing number `{key}`"))
        };
        let outcomes_doc = doc.get("outcomes").ok_or("profile is missing outcomes")?;
        let outcomes = Outcomes {
            shared_bufmem: num_of(outcomes_doc, "shared_bufmem")?,
            nonshared_bufmem: num_of(outcomes_doc, "nonshared_bufmem")?,
            fragmentation: num_of(outcomes_doc, "fragmentation")?,
            winner: str_of(outcomes_doc, "winner")?,
            candidates: num_of(outcomes_doc, "candidates")?,
        };
        let mut counters = Vec::new();
        for (name, value) in doc
            .get("counters")
            .and_then(Json::members)
            .ok_or("profile is missing counters")?
        {
            let value = value
                .as_num()
                .ok_or_else(|| format!("counter `{name}` is not a number"))?;
            counters.push((name.clone(), value as u64));
        }
        counters.sort();
        let mut timings = Vec::new();
        for (name, stat) in doc
            .get("timings")
            .and_then(Json::members)
            .ok_or("profile is missing timings")?
        {
            let field = |key: &str| -> Result<f64, String> {
                stat.get(key)
                    .and_then(Json::as_num)
                    .ok_or_else(|| format!("timing `{name}` is missing `{key}`"))
            };
            timings.push((
                name.clone(),
                TimingStat {
                    median_us: field("median_us")?,
                    mad_us: field("mad_us")?,
                    samples: field("samples")? as u32,
                },
            ));
        }
        timings.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(Profile {
            graph: str_of(&doc, "graph")?,
            actors: num_of(&doc, "actors")?,
            edges: num_of(&doc, "edges")?,
            repeats: num_of(&doc, "repeats")? as u32,
            full: doc.get("full").and_then(Json::as_bool).unwrap_or(false),
            outcomes,
            counters,
            timings,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Profile {
        Profile {
            graph: "satrec".to_string(),
            actors: 26,
            edges: 29,
            repeats: 3,
            full: true,
            outcomes: Outcomes {
                shared_bufmem: 1542,
                nonshared_bufmem: 1920,
                fragmentation: 12,
                winner: "apgan/sdppo/ffdur".to_string(),
                candidates: 14,
            },
            counters: vec![
                ("alloc.first_fit.probes".to_string(), 321),
                ("sched.dppo.cells".to_string(), 210),
            ],
            timings: vec![(
                "engine.total".to_string(),
                TimingStat {
                    median_us: 1234.5,
                    mad_us: 21.25,
                    samples: 3,
                },
            )],
        }
    }

    #[test]
    fn round_trips_through_json() {
        let profile = sample();
        let parsed = Profile::parse(&profile.to_json()).unwrap();
        assert_eq!(parsed, profile);
    }

    #[test]
    fn median_and_mad() {
        let even = TimingStat::from_samples_ns(&[1_000, 3_000, 2_000, 4_000]);
        assert_eq!(even.median_us, 2.5);
        assert_eq!(even.mad_us, 1.0);
        assert_eq!(even.samples, 4);
        assert_eq!(TimingStat::from_samples_ns(&[]), TimingStat::default());
        let single = TimingStat::from_samples_ns(&[7_000]);
        assert_eq!(single.median_us, 7.0);
        assert_eq!(single.mad_us, 0.0);
    }

    #[test]
    fn perturbation_hook() {
        let mut p = sample();
        p.apply_perturbation("sched.dppo.cells=+5").unwrap();
        assert_eq!(p.counter("sched.dppo.cells"), Some(215));
        p.apply_perturbation("sched.dppo.cells=-15").unwrap();
        assert_eq!(p.counter("sched.dppo.cells"), Some(200));
        p.apply_perturbation("sched.dppo.cells=77").unwrap();
        assert_eq!(p.counter("sched.dppo.cells"), Some(77));
        p.apply_perturbation("brand.new=9").unwrap();
        assert_eq!(p.counter("brand.new"), Some(9));
        assert!(p.counters.windows(2).all(|w| w[0].0 < w[1].0), "sorted");
        assert!(p.apply_perturbation("no-equals").is_err());
        assert!(p.apply_perturbation("x=+abc").is_err());
    }

    #[test]
    fn parse_rejects_foreign_documents() {
        assert!(Profile::parse("not json").unwrap_err().contains("invalid"));
        assert!(Profile::parse("{}").unwrap_err().contains("schema_version"));
        let wrong_version = sample().to_json().replacen(
            &format!("\"schema_version\":{}", sdf_trace::SCHEMA_VERSION),
            "\"schema_version\":2",
            1,
        );
        assert!(Profile::parse(&wrong_version)
            .unwrap_err()
            .contains("schema_version 2"));
        let wrong_kind = sample().to_json().replacen("baseline_profile", "trace", 1);
        assert!(Profile::parse(&wrong_kind)
            .unwrap_err()
            .contains("not baseline_profile"));
    }
}
