//! Diffing two [`Profile`]s into a structured [`RegressionReport`].

use std::fmt::Write as _;

use crate::profile::{Profile, TimingStat};

/// How a single compared item fared.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Severity {
    /// The candidate is strictly better (smaller pool, fewer probes);
    /// still a gate failure for exact-match sections — refresh the
    /// baseline to bank the win.
    Improved,
    /// Worth a look but not gated (timing drift, new counters).
    Warning,
    /// A gated behaviour change: more work, worse memory, lost counters.
    Regression,
    /// The item changed but an allow-list entry exempts it.
    Allowed,
}

impl Severity {
    /// Tag rendered in text and markdown reports.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Improved => "IMPROVED",
            Severity::Warning => "WARNING",
            Severity::Regression => "REGRESSION",
            Severity::Allowed => "ALLOWED",
        }
    }
}

/// One compared item that differed between baseline and candidate.
#[derive(Clone, Debug)]
pub struct DiffEntry {
    /// Which section the item belongs to: `meta`, `outcome`, `counter`
    /// or `timing`.
    pub section: &'static str,
    /// The item name (counter/timing/outcome field).
    pub name: String,
    /// Baseline rendering.
    pub baseline: String,
    /// Candidate rendering.
    pub candidate: String,
    /// How bad it is.
    pub severity: Severity,
    /// Whether this entry fails the gate (exit-nonzero) under the
    /// options the diff ran with.
    pub gated: bool,
    /// Human explanation (direction, band, allow-list reason).
    pub note: String,
}

/// Output format of a rendered [`RegressionReport`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ReportFormat {
    /// Aligned plain text.
    #[default]
    Text,
    /// A schema-version-3 JSON document.
    Json,
    /// A GitHub-flavoured markdown table (CI artifact / PR comment).
    Markdown,
}

/// Tuning knobs for [`diff`].
#[derive(Clone, Debug)]
pub struct DiffOptions {
    /// Names exempt from the exact-match gate. An entry ending in `*`
    /// matches any name with that prefix (`sched.sdppo.*`); anything
    /// else must match exactly.
    pub allow: Vec<String>,
    /// Width of the timing noise band in baseline MADs.
    pub band_mads: f64,
    /// Minimum band as a fraction of the baseline median (guards
    /// against a suspiciously quiet capture machine).
    pub band_rel_floor: f64,
    /// Absolute minimum band, microseconds.
    pub band_floor_us: f64,
    /// Gate on timing-band violations too (off by default: wall clocks
    /// are not comparable across machines, counters are).
    pub gate_timings: bool,
}

impl Default for DiffOptions {
    fn default() -> Self {
        DiffOptions {
            allow: Vec::new(),
            band_mads: 5.0,
            band_rel_floor: 0.25,
            band_floor_us: 50.0,
            gate_timings: false,
        }
    }
}

impl DiffOptions {
    fn allowed(&self, name: &str) -> bool {
        self.allow.iter().any(|pat| match pat.strip_suffix('*') {
            Some(prefix) => name.starts_with(prefix),
            None => pat == name,
        })
    }
}

/// The structured result of comparing a candidate profile against a
/// baseline.
#[derive(Clone, Debug)]
pub struct RegressionReport {
    /// Graph name (the baseline's).
    pub graph: String,
    /// Items that matched exactly (counters + outcomes + meta).
    pub matched: usize,
    /// Everything that differed, in comparison order.
    pub entries: Vec<DiffEntry>,
}

impl RegressionReport {
    /// Number of entries that fail the gate.
    pub fn gate_failures(&self) -> usize {
        self.entries.iter().filter(|e| e.gated).count()
    }

    /// Whether the candidate passes the gate.
    pub fn is_clean(&self) -> bool {
        self.gate_failures() == 0
    }

    /// Number of non-gated advisory entries.
    pub fn warnings(&self) -> usize {
        self.entries.iter().filter(|e| !e.gated).count()
    }

    /// Renders the report in the requested format.
    pub fn render(&self, format: ReportFormat) -> String {
        match format {
            ReportFormat::Text => self.to_text(),
            ReportFormat::Json => self.to_json(),
            ReportFormat::Markdown => self.to_markdown(),
        }
    }

    /// One-line verdict used by every renderer.
    fn verdict(&self) -> String {
        format!(
            "{}: {} gate failure(s), {} advisory, {} item(s) matched",
            self.graph,
            self.gate_failures(),
            self.warnings(),
            self.matched
        )
    }

    /// Aligned plain-text rendering.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "regression report — {}", self.verdict());
        if self.entries.is_empty() {
            out.push_str("no differences\n");
            return out;
        }
        for e in &self.entries {
            let _ = writeln!(
                out,
                "  [{:<10}] {} {}: {} -> {} ({})",
                e.severity.as_str(),
                e.section,
                e.name,
                e.baseline,
                e.candidate,
                e.note
            );
        }
        out
    }

    /// JSON rendering (kind `regression_report`) with the workspace's
    /// unified `kind` + `schema_version` envelope.
    pub fn to_json(&self) -> String {
        let mut s = sdf_trace::json::document("regression_report", |w| {
            w.str("graph", &self.graph)
                .num("gate_failures", self.gate_failures())
                .num("warnings", self.warnings())
                .num("matched", self.matched)
                .array("entries", |w| {
                    for e in &self.entries {
                        w.item_object(|w| {
                            w.str("section", e.section)
                                .str("name", &e.name)
                                .str("baseline", &e.baseline)
                                .str("candidate", &e.candidate)
                                .str("severity", e.severity.as_str())
                                .bool("gated", e.gated)
                                .str("note", &e.note);
                        });
                    }
                });
        });
        s.push('\n');
        s
    }

    /// Markdown rendering: a verdict line plus a table of differences.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let icon = if self.is_clean() { "✅" } else { "❌" };
        let _ = writeln!(out, "{icon} **{}**\n", self.verdict());
        if self.entries.is_empty() {
            out.push_str("No differences.\n");
            return out;
        }
        out.push_str("| severity | section | name | baseline | candidate | note |\n");
        out.push_str("|---|---|---|---|---|---|\n");
        for e in &self.entries {
            let _ = writeln!(
                out,
                "| {} | {} | `{}` | {} | {} | {} |",
                e.severity.as_str(),
                e.section,
                e.name,
                e.baseline,
                e.candidate,
                e.note
            );
        }
        out
    }
}

/// Compares `candidate` against `baseline`.
///
/// Counters, allocation outcomes, and graph shape are gated on exact
/// match (unless allow-listed); timings are compared against a noise
/// band of `max(band_mads × MAD, band_rel_floor × median,
/// band_floor_us)` around the baseline median and gate only when
/// [`DiffOptions::gate_timings`] is set. Candidate-only counters are
/// advisory warnings *unless* the baseline lost them (a removed counter
/// is gated — instrumentation silently disappearing is exactly the kind
/// of regression a sentinel exists to catch).
pub fn diff(baseline: &Profile, candidate: &Profile, opts: &DiffOptions) -> RegressionReport {
    let mut entries = Vec::new();
    let mut matched = 0usize;

    // Meta: comparing different graphs (or the same graph after a shape
    // change) can never pass the exact gate; say so up front.
    for (name, base, cand) in [
        ("graph", baseline.graph.clone(), candidate.graph.clone()),
        (
            "actors",
            baseline.actors.to_string(),
            candidate.actors.to_string(),
        ),
        (
            "edges",
            baseline.edges.to_string(),
            candidate.edges.to_string(),
        ),
    ] {
        if base == cand {
            matched += 1;
        } else {
            entries.push(DiffEntry {
                section: "meta",
                name: name.to_string(),
                baseline: base,
                candidate: cand,
                severity: Severity::Regression,
                gated: true,
                note: "profiles describe different graphs".to_string(),
            });
        }
    }
    if baseline.full != candidate.full {
        entries.push(DiffEntry {
            section: "meta",
            name: "full".to_string(),
            baseline: baseline.full.to_string(),
            candidate: candidate.full.to_string(),
            severity: Severity::Regression,
            gated: true,
            note: "captures swept different loop-optimizer sets".to_string(),
        });
    } else {
        matched += 1;
    }

    // Outcomes: exact match, with direction-aware severity.
    let outcome_rows: [(&str, u64, u64, bool); 4] = [
        (
            "shared_bufmem",
            baseline.outcomes.shared_bufmem,
            candidate.outcomes.shared_bufmem,
            true,
        ),
        (
            "nonshared_bufmem",
            baseline.outcomes.nonshared_bufmem,
            candidate.outcomes.nonshared_bufmem,
            true,
        ),
        (
            "fragmentation",
            baseline.outcomes.fragmentation,
            candidate.outcomes.fragmentation,
            true,
        ),
        (
            "candidates",
            baseline.outcomes.candidates,
            candidate.outcomes.candidates,
            false,
        ),
    ];
    for (name, base, cand, smaller_is_better) in outcome_rows {
        push_exact(
            &mut entries,
            &mut matched,
            opts,
            "outcome",
            name,
            base,
            cand,
            smaller_is_better,
        );
    }
    if baseline.outcomes.winner == candidate.outcomes.winner {
        matched += 1;
    } else {
        let allowed = opts.allowed("winner");
        entries.push(DiffEntry {
            section: "outcome",
            name: "winner".to_string(),
            baseline: baseline.outcomes.winner.clone(),
            candidate: candidate.outcomes.winner.clone(),
            severity: if allowed {
                Severity::Allowed
            } else {
                Severity::Regression
            },
            gated: !allowed,
            note: "a different lattice point now wins".to_string(),
        });
    }

    // Counters: exact match over the union of names.
    let mut base_it = baseline.counters.iter().peekable();
    let mut cand_it = candidate.counters.iter().peekable();
    loop {
        match (base_it.peek(), cand_it.peek()) {
            (None, None) => break,
            (Some((name, base)), None) => {
                push_removed(&mut entries, opts, name, *base);
                base_it.next();
            }
            (None, Some((name, cand))) => {
                push_added(&mut entries, opts, name, *cand);
                cand_it.next();
            }
            (Some((bn, base)), Some((cn, cand))) => match bn.cmp(cn) {
                std::cmp::Ordering::Less => {
                    push_removed(&mut entries, opts, bn, *base);
                    base_it.next();
                }
                std::cmp::Ordering::Greater => {
                    push_added(&mut entries, opts, cn, *cand);
                    cand_it.next();
                }
                std::cmp::Ordering::Equal => {
                    push_exact(
                        &mut entries,
                        &mut matched,
                        opts,
                        "counter",
                        bn,
                        *base,
                        *cand,
                        true,
                    );
                    base_it.next();
                    cand_it.next();
                }
            },
        }
    }

    // Timings: noise-band check on names present in both profiles.
    for (name, base) in &baseline.timings {
        let Some((_, cand)) = candidate.timings.iter().find(|(n, _)| n == name) else {
            continue;
        };
        push_timing(&mut entries, &mut matched, opts, name, base, cand);
    }

    RegressionReport {
        graph: baseline.graph.clone(),
        matched,
        entries,
    }
}

#[allow(clippy::too_many_arguments)]
fn push_exact(
    entries: &mut Vec<DiffEntry>,
    matched: &mut usize,
    opts: &DiffOptions,
    section: &'static str,
    name: &str,
    base: u64,
    cand: u64,
    smaller_is_better: bool,
) {
    if base == cand {
        *matched += 1;
        return;
    }
    let allowed = opts.allowed(name);
    let improved = smaller_is_better && cand < base;
    let severity = if allowed {
        Severity::Allowed
    } else if improved {
        Severity::Improved
    } else {
        Severity::Regression
    };
    let delta = cand as i128 - base as i128;
    let note = if allowed {
        "differs, allow-listed".to_string()
    } else if improved {
        format!("{delta:+} — improvement; refresh the baseline to keep it")
    } else {
        format!("{delta:+} vs baseline")
    };
    entries.push(DiffEntry {
        section,
        name: name.to_string(),
        baseline: base.to_string(),
        candidate: cand.to_string(),
        severity,
        gated: !allowed,
        note,
    });
}

fn push_removed(entries: &mut Vec<DiffEntry>, opts: &DiffOptions, name: &str, base: u64) {
    let allowed = opts.allowed(name);
    entries.push(DiffEntry {
        section: "counter",
        name: name.to_string(),
        baseline: base.to_string(),
        candidate: "absent".to_string(),
        severity: if allowed {
            Severity::Allowed
        } else {
            Severity::Regression
        },
        gated: !allowed,
        note: "counter disappeared from the candidate".to_string(),
    });
}

fn push_added(entries: &mut Vec<DiffEntry>, opts: &DiffOptions, name: &str, cand: u64) {
    let allowed = opts.allowed(name);
    entries.push(DiffEntry {
        section: "counter",
        name: name.to_string(),
        baseline: "absent".to_string(),
        candidate: cand.to_string(),
        severity: if allowed {
            Severity::Allowed
        } else {
            Severity::Warning
        },
        gated: false,
        note: "new counter — refresh the baseline to start gating it".to_string(),
    });
}

fn push_timing(
    entries: &mut Vec<DiffEntry>,
    matched: &mut usize,
    opts: &DiffOptions,
    name: &str,
    base: &TimingStat,
    cand: &TimingStat,
) {
    let band = (opts.band_mads * base.mad_us)
        .max(opts.band_rel_floor * base.median_us)
        .max(opts.band_floor_us);
    let delta = cand.median_us - base.median_us;
    if delta.abs() <= band {
        *matched += 1;
        return;
    }
    let slower = delta > 0.0;
    let allowed = opts.allowed(name);
    let gated = slower && opts.gate_timings && !allowed;
    entries.push(DiffEntry {
        section: "timing",
        name: name.to_string(),
        baseline: format!("{:.1}µs ±{:.1}", base.median_us, band),
        candidate: format!("{:.1}µs", cand.median_us),
        severity: if allowed {
            Severity::Allowed
        } else if slower {
            if opts.gate_timings {
                Severity::Regression
            } else {
                Severity::Warning
            }
        } else {
            Severity::Improved
        },
        gated,
        note: format!(
            "median {} the noise band by {:.1}µs",
            if slower { "above" } else { "below" },
            delta.abs() - band
        ),
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Outcomes;
    use sdf_trace::json::parse;

    fn profile() -> Profile {
        Profile {
            graph: "fig2".to_string(),
            actors: 3,
            edges: 2,
            repeats: 3,
            full: true,
            outcomes: Outcomes {
                shared_bufmem: 30,
                nonshared_bufmem: 40,
                fragmentation: 0,
                winner: "apgan/sdppo/ffdur".to_string(),
                candidates: 10,
            },
            counters: vec![
                ("alloc.first_fit.probes".to_string(), 12),
                ("sched.dppo.cells".to_string(), 21),
            ],
            timings: vec![(
                "engine.total".to_string(),
                TimingStat {
                    median_us: 1000.0,
                    mad_us: 10.0,
                    samples: 3,
                },
            )],
        }
    }

    #[test]
    fn identical_profiles_are_clean() {
        let report = diff(&profile(), &profile(), &DiffOptions::default());
        assert!(report.is_clean());
        assert_eq!(report.entries.len(), 0);
        assert!(report.matched > 8);
        assert!(report.to_text().contains("no differences"));
        assert!(report.to_markdown().contains("✅"));
    }

    #[test]
    fn counter_change_names_the_counter() {
        let mut cand = profile();
        cand.apply_perturbation("sched.dppo.cells=+9").unwrap();
        let report = diff(&profile(), &cand, &DiffOptions::default());
        assert_eq!(report.gate_failures(), 1);
        let text = report.to_text();
        assert!(text.contains("sched.dppo.cells"), "{text}");
        assert!(text.contains("REGRESSION"), "{text}");
        assert!(text.contains("+9"), "{text}");
    }

    #[test]
    fn counter_decrease_is_improved_but_still_gated() {
        let mut cand = profile();
        cand.apply_perturbation("alloc.first_fit.probes=-5")
            .unwrap();
        let report = diff(&profile(), &cand, &DiffOptions::default());
        assert_eq!(report.gate_failures(), 1);
        assert_eq!(report.entries[0].severity, Severity::Improved);
        assert!(report.entries[0].note.contains("refresh"));
    }

    #[test]
    fn allowlist_exempts_exact_and_prefix() {
        let mut cand = profile();
        cand.apply_perturbation("sched.dppo.cells=+9").unwrap();
        cand.apply_perturbation("alloc.first_fit.probes=+1")
            .unwrap();
        let opts = DiffOptions {
            allow: vec!["sched.*".to_string(), "alloc.first_fit.probes".to_string()],
            ..DiffOptions::default()
        };
        let report = diff(&profile(), &cand, &opts);
        assert!(report.is_clean(), "{}", report.to_text());
        assert_eq!(report.entries.len(), 2);
        assert!(report
            .entries
            .iter()
            .all(|e| e.severity == Severity::Allowed));
    }

    #[test]
    fn removed_counter_gates_added_counter_warns() {
        let mut cand = profile();
        cand.counters.remove(0); // alloc.first_fit.probes gone
        cand.counters.push(("zz.new.counter".to_string(), 5));
        cand.counters.sort();
        let report = diff(&profile(), &cand, &DiffOptions::default());
        assert_eq!(report.gate_failures(), 1);
        assert_eq!(report.warnings(), 1);
        let text = report.to_text();
        assert!(text.contains("disappeared"), "{text}");
        assert!(text.contains("new counter"), "{text}");
    }

    #[test]
    fn memory_outcome_regression_gates() {
        let mut cand = profile();
        cand.outcomes.shared_bufmem = 35;
        let report = diff(&profile(), &cand, &DiffOptions::default());
        assert_eq!(report.gate_failures(), 1);
        assert!(report.to_text().contains("shared_bufmem"));
    }

    #[test]
    fn winner_flip_gates_unless_allowed() {
        let mut cand = profile();
        cand.outcomes.winner = "rpmc/dppo/ffstart".to_string();
        assert_eq!(
            diff(&profile(), &cand, &DiffOptions::default()).gate_failures(),
            1
        );
        let opts = DiffOptions {
            allow: vec!["winner".to_string()],
            ..DiffOptions::default()
        };
        assert!(diff(&profile(), &cand, &opts).is_clean());
    }

    #[test]
    fn timing_band_is_advisory_by_default() {
        let mut cand = profile();
        cand.timings[0].1.median_us = 2000.0; // way past 1000 ± max(50, 250, 50)
        let default_report = diff(&profile(), &cand, &DiffOptions::default());
        assert!(default_report.is_clean());
        assert_eq!(default_report.warnings(), 1);
        assert!(default_report.to_text().contains("above the noise band"));
        let gated = diff(
            &profile(),
            &cand,
            &DiffOptions {
                gate_timings: true,
                ..DiffOptions::default()
            },
        );
        assert_eq!(gated.gate_failures(), 1);
        // Faster is an improvement, never gated.
        cand.timings[0].1.median_us = 100.0;
        let faster = diff(
            &profile(),
            &cand,
            &DiffOptions {
                gate_timings: true,
                ..DiffOptions::default()
            },
        );
        assert!(faster.is_clean());
        assert_eq!(faster.entries[0].severity, Severity::Improved);
    }

    #[test]
    fn timing_inside_band_matches() {
        let mut cand = profile();
        cand.timings[0].1.median_us = 1200.0; // band = max(50, 250, 50) = 250
        let report = diff(&profile(), &cand, &DiffOptions::default());
        assert!(report.entries.iter().all(|e| e.section != "timing"));
    }

    #[test]
    fn different_graphs_cannot_pass() {
        let mut cand = profile();
        cand.graph = "other".to_string();
        cand.actors = 7;
        let report = diff(&profile(), &cand, &DiffOptions::default());
        assert!(report.gate_failures() >= 2);
        assert!(report.to_text().contains("different graphs"));
    }

    #[test]
    fn json_rendering_parses_and_carries_entries() {
        let mut cand = profile();
        cand.apply_perturbation("sched.dppo.cells=+9").unwrap();
        let report = diff(&profile(), &cand, &DiffOptions::default());
        let doc = parse(&report.to_json()).expect("valid JSON");
        assert_eq!(
            doc.get("kind").and_then(|k| k.as_str()),
            Some("regression_report")
        );
        assert_eq!(doc.get("gate_failures").and_then(|g| g.as_num()), Some(1.0));
        let entries = doc.get("entries").and_then(|e| e.as_array()).unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(
            entries[0].get("name").and_then(|n| n.as_str()),
            Some("sched.dppo.cells")
        );
        let md = report.to_markdown();
        assert!(md.contains("| REGRESSION |"), "{md}");
        assert!(md.contains("`sched.dppo.cells`"), "{md}");
    }
}
