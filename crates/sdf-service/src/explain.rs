//! The allocation-provenance report: why the shared pool looks the way
//! it does.
//!
//! [`ExplainReport::build`] runs the paper's default shared-memory
//! pipeline (APGAN order → SDPPO loop DP → lifetime analysis → WIG →
//! first-fit in `ffdur` order) with the allocator's provenance ledger
//! and the pool occupancy timeline enabled, then packages the result as
//! the `allocation_explain` document (schema v8): one ledger entry per
//! buffer in placement order, the occupancy timeline with its two peaks,
//! and the waste-vs-lower-bound breakdown.
//!
//! Two invariants hold by construction and are asserted in tests:
//!
//! * the per-buffer fragmentation attributions sum exactly to the run's
//!   `alloc.fragmentation_words`;
//! * the occupancy timeline's occupied-words peak equals the shared
//!   pool size (`Allocation::total`) bit for bit.
//!
//! The document embeds no wall-clock data, so cached `explain`
//! responses repeat byte-identically.

use std::fmt::Write as _;

use sdf_alloc::provenance::GapRejection;
use sdf_alloc::{allocate_with_provenance, AllocationOrder, PlacementPolicy};
use sdf_core::graph::SdfGraph;
use sdf_core::repetitions::RepetitionsVector;
use sdf_lifetime::clique::mcw_optimistic;
use sdf_lifetime::occupancy::OccupancyTimeline;
use sdf_lifetime::tree::ScheduleTree;
use sdf_lifetime::wig::IntersectionGraph;
use sdf_sched::{apgan, sdppo};
use sdf_trace::json;

use crate::api::ServiceError;

/// One gap an allocation decision considered and rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExplainRejectedGap {
    /// First address of the gap.
    pub start: u64,
    /// One past the last address of the gap.
    pub end: u64,
    /// `too_small` or `policy_skip`.
    pub reason: &'static str,
    /// Words missing (`too_small`) or spare (`policy_skip`).
    pub words: u64,
}

/// One buffer's placement decision, in placement order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExplainLedgerEntry {
    /// Buffer name: `src->dst` actor names of the SDF edge.
    pub buffer: String,
    /// WIG buffer index (SDF edge order).
    pub index: usize,
    /// Position in the placement sequence (0 = placed first).
    pub sequence: usize,
    /// Buffer size in words.
    pub size: u64,
    /// Earliest start of the buffer's lifetime (schedule clock).
    pub start: u64,
    /// Envelope duration of the lifetime.
    pub duration: u64,
    /// The chosen address.
    pub offset: u64,
    /// Positions probed (conflicting ranges inspected + final placement).
    pub probes: u64,
    /// Pool waste words attributed to this single decision.
    pub fragmentation: u64,
    /// Gaps below the chosen offset, with rejection reasons.
    pub rejected: Vec<ExplainRejectedGap>,
}

/// One coalesced occupancy sample (step function, sampled at every
/// envelope transition).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExplainTimelinePoint {
    /// Logical time of the transition.
    pub time: u64,
    /// Live buffer count after it.
    pub live_buffers: u64,
    /// Live data words after it.
    pub live_words: u64,
    /// Pool high-water mark (`max(offset + size)` over live buffers).
    pub occupied_words: u64,
}

/// The complete allocation-provenance report of one graph
/// (the `allocation_explain` document).
#[derive(Clone, Debug)]
pub struct ExplainReport {
    /// Graph name.
    pub graph: String,
    /// Actor count.
    pub actors: usize,
    /// Edge (buffer) count.
    pub edges: usize,
    /// Allocation order used (`ffdur`).
    pub order: &'static str,
    /// Placement policy used (`first_fit`).
    pub policy: &'static str,
    /// Shared pool size in words (`max(offset + size)`).
    pub pool_total: u64,
    /// Sum of all buffer sizes — the non-shared requirement.
    pub non_shared_total: u64,
    /// The optimistic maximum-clique-weight estimate (§9.1): a lower
    /// bound on any valid shared pool for the analysed
    /// (SDPPO-optimised) schedule.
    pub lower_bound: u64,
    /// `pool_total - lower_bound`: words the layout wastes versus that
    /// lower bound.
    pub waste: u64,
    /// Sum of the per-buffer fragmentation attributions (the run's
    /// `alloc.fragmentation_words`).
    pub fragmentation_words: u64,
    /// One decision per buffer, in placement order.
    pub ledger: Vec<ExplainLedgerEntry>,
    /// The occupancy timeline, coalesced per transition instant.
    pub timeline: Vec<ExplainTimelinePoint>,
    /// Peak of the envelope-model live-words series. Informational:
    /// exact lifetimes can interleave within overlapping envelopes, so
    /// this may exceed `pool_total`.
    pub peak_live: u64,
    /// Peak of the occupied-words series (== `pool_total`).
    pub peak_occupied: u64,
    /// Time of the last envelope end.
    pub end_time: u64,
}

impl ExplainReport {
    /// Runs the default shared-memory pipeline on `g` with provenance
    /// enabled and assembles the report.
    ///
    /// # Errors
    ///
    /// [`ServiceError`] with an engine code on consistency or
    /// scheduling failures (same paths as `plan`).
    pub fn build(g: &SdfGraph) -> Result<ExplainReport, ServiceError> {
        let engine = ServiceError::engine;
        let q = RepetitionsVector::compute(g).map_err(|e| engine(e.to_string()))?;
        let order = apgan(g, &q).map_err(|e| engine(e.to_string()))?;
        let r = sdppo(g, &q, &order).map_err(|e| engine(e.to_string()))?;
        let tree = ScheduleTree::build(g, &q, &r.tree).map_err(|e| engine(e.to_string()))?;
        let wig = IntersectionGraph::build(g, &q, &tree);
        let (alloc, log) = allocate_with_provenance(
            &wig,
            AllocationOrder::DurationDescending,
            PlacementPolicy::FirstFit,
        );
        let timeline = OccupancyTimeline::build(&wig, alloc.offsets());

        let name_of = |index: usize| {
            let edge = &wig.buffer(index).edge;
            g.edges()
                .find(|(id, _)| id == edge)
                .map(|(_, e)| format!("{}->{}", g.actor_name(e.src), g.actor_name(e.snk)))
                .unwrap_or_else(|| format!("buffer{index}"))
        };
        let ledger: Vec<ExplainLedgerEntry> = log
            .decisions
            .iter()
            .map(|d| ExplainLedgerEntry {
                buffer: name_of(d.buffer),
                index: d.buffer,
                sequence: d.sequence,
                size: d.size,
                start: d.start,
                duration: d.duration,
                offset: d.offset,
                probes: d.probes,
                fragmentation: d.fragmentation,
                rejected: d
                    .rejected
                    .iter()
                    .map(|r| {
                        let (reason, words) = match r.reason {
                            GapRejection::TooSmall { shortfall } => ("too_small", shortfall),
                            GapRejection::PolicySkip { waste } => ("policy_skip", waste),
                        };
                        ExplainRejectedGap {
                            start: r.start,
                            end: r.end,
                            reason,
                            words,
                        }
                    })
                    .collect(),
            })
            .collect();

        let pool_total = alloc.total();
        // The envelope-model live peak is NOT a valid pool bound (exact
        // periodic lifetimes can interleave inside overlapping
        // envelopes), so the waste breakdown measures against the
        // paper's MCW lower bound instead.
        let lower_bound = mcw_optimistic(&wig);
        Ok(ExplainReport {
            graph: g.name().to_string(),
            actors: g.actor_count(),
            edges: wig.len(),
            order: "ffdur",
            policy: "first_fit",
            pool_total,
            non_shared_total: wig.total_size(),
            lower_bound,
            waste: pool_total - lower_bound,
            fragmentation_words: log.fragmentation_words(),
            ledger,
            timeline: timeline
                .samples()
                .iter()
                .map(|s| ExplainTimelinePoint {
                    time: s.time,
                    live_buffers: s.live_buffers,
                    live_words: s.live_words,
                    occupied_words: s.occupied_words,
                })
                .collect(),
            peak_live: timeline.peak_live(),
            peak_occupied: timeline.peak_occupied(),
            end_time: timeline.end_time(),
        })
    }

    /// Serializes the report as the `allocation_explain` document (one
    /// line, standard envelope, no wall-clock data).
    pub fn to_json(&self) -> String {
        json::document("allocation_explain", |w| {
            w.str("graph", &self.graph)
                .num("actors", self.actors)
                .num("edges", self.edges)
                .str("order", self.order)
                .str("policy", self.policy)
                .num("pool_total", self.pool_total)
                .num("non_shared_total", self.non_shared_total)
                .num("lower_bound", self.lower_bound)
                .num("waste", self.waste)
                .num("fragmentation_words", self.fragmentation_words)
                .array("ledger", |w| {
                    for entry in &self.ledger {
                        w.item_object(|w| {
                            w.str("buffer", &entry.buffer)
                                .num("index", entry.index)
                                .num("sequence", entry.sequence)
                                .num("size", entry.size)
                                .num("start", entry.start)
                                .num("duration", entry.duration)
                                .num("offset", entry.offset)
                                .num("probes", entry.probes)
                                .num("fragmentation", entry.fragmentation)
                                .array("rejected", |w| {
                                    for gap in &entry.rejected {
                                        let field = match gap.reason {
                                            "too_small" => "shortfall",
                                            _ => "waste",
                                        };
                                        w.item_object(|w| {
                                            w.num("start", gap.start)
                                                .num("end", gap.end)
                                                .str("reason", gap.reason)
                                                .num(field, gap.words);
                                        });
                                    }
                                });
                        });
                    }
                })
                .object("timeline", |w| {
                    w.num("peak_live", self.peak_live)
                        .num("peak_occupied", self.peak_occupied)
                        .num("end_time", self.end_time)
                        .array("samples", |w| {
                            for p in &self.timeline {
                                w.item_array(|w| {
                                    w.item_num(p.time)
                                        .item_num(p.live_buffers)
                                        .item_num(p.live_words)
                                        .item_num(p.occupied_words);
                                });
                            }
                        });
                });
        })
    }

    /// Renders the per-buffer placement stories as human-readable text,
    /// optionally restricted to the buffer named `only` (`src->dst`).
    /// Returns `None` if `only` matches no ledger entry.
    pub fn render_text(&self, only: Option<&str>) -> Option<String> {
        if let Some(name) = only {
            if !self.ledger.iter().any(|e| e.buffer == name) {
                return None;
            }
        }
        let mut out = String::new();
        let _ = writeln!(
            out,
            "allocation provenance for `{}` ({} actors, {} buffers, {}/{})",
            self.graph, self.actors, self.edges, self.order, self.policy
        );
        let _ = writeln!(
            out,
            "pool {} words | non-shared {} | lower bound {} | waste {} \
             (fragmentation attributed: {})",
            self.pool_total,
            self.non_shared_total,
            self.lower_bound,
            self.waste,
            self.fragmentation_words
        );
        out.push('\n');
        for entry in &self.ledger {
            if only.is_some_and(|name| entry.buffer != name) {
                continue;
            }
            let _ = write!(
                out,
                "#{} `{}` ({} words, live [{},{})) placed at {}",
                entry.sequence,
                entry.buffer,
                entry.size,
                entry.start,
                entry.start + entry.duration,
                entry.offset
            );
            if entry.rejected.is_empty() {
                let _ = writeln!(out, " — first feasible address");
            } else {
                let _ = writeln!(
                    out,
                    " after rejecting {} gap{}:",
                    entry.rejected.len(),
                    if entry.rejected.len() == 1 { "" } else { "s" }
                );
                for gap in &entry.rejected {
                    let why = match gap.reason {
                        "too_small" => format!("{} words short", gap.words),
                        _ => format!("policy skip, {} words spare", gap.words),
                    };
                    let _ = writeln!(out, "    gap [{},{}) — {}", gap.start, gap.end, why);
                }
            }
            if entry.fragmentation > 0 {
                let _ = writeln!(
                    out,
                    "    this decision cost {} words of fragmentation",
                    entry.fragmentation
                );
            }
        }
        if only.is_none() {
            out.push('\n');
            out.push_str(&self.ascii_profile(56, 8));
        }
        Some(out)
    }

    /// Renders the occupancy timeline as an ASCII profile: `#` for live
    /// words, `:` above them up to the occupied high-water mark (the
    /// visible gap between the two is the layout's waste).
    pub fn ascii_profile(&self, width: usize, height: usize) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "pool occupancy (peak {} of {} words, t in [0,{}])",
            self.peak_occupied, self.pool_total, self.end_time
        );
        if self.peak_occupied == 0 || self.timeline.is_empty() {
            out.push_str("(pool never occupied)\n");
            return out;
        }
        let width = width.max(8);
        let height = height.max(2);
        // Per-column maxima of the two step series. Column c covers the
        // logical time window [end*c/width, end*(c+1)/width); a step
        // function's value entering the window is carried forward.
        let end = self.end_time.max(1);
        let mut live_cols = vec![0u64; width];
        let mut occ_cols = vec![0u64; width];
        let mut sample_at = 0usize;
        let (mut live, mut occ) = (0u64, 0u64);
        for (c, (lc, oc)) in live_cols.iter_mut().zip(occ_cols.iter_mut()).enumerate() {
            let window_end = end * (c as u64 + 1) / width as u64;
            *lc = live;
            *oc = occ;
            while sample_at < self.timeline.len() && self.timeline[sample_at].time < window_end {
                let p = self.timeline[sample_at];
                live = p.live_words;
                occ = p.occupied_words;
                *lc = (*lc).max(live);
                *oc = (*oc).max(occ);
                sample_at += 1;
            }
        }
        let peak = self.peak_occupied;
        let label_width = peak.to_string().len();
        for row in 0..height {
            // Threshold for this row, highest row first.
            let threshold = peak * (height - row) as u64;
            let _ = write!(out, "{:>label_width$} |", threshold.div_ceil(height as u64));
            for c in 0..width {
                let ch = if live_cols[c] * height as u64 >= threshold {
                    '#'
                } else if occ_cols[c] * height as u64 >= threshold {
                    ':'
                } else {
                    ' '
                };
                out.push(ch);
            }
            out.push('\n');
        }
        let _ = writeln!(out, "{:>label_width$} +{}", 0, "-".repeat(width));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdf_trace::json::{parse, Json};

    const FIG2: &str = "graph fig2\nedge A B 20 10\nedge B C 20 10\n";

    fn report() -> ExplainReport {
        let g = sdf_core::io::parse_graph(FIG2).unwrap();
        ExplainReport::build(&g).unwrap()
    }

    #[test]
    fn invariants_hold_on_fig2() {
        let r = report();
        assert_eq!(r.peak_occupied, r.pool_total);
        assert_eq!(r.waste, r.pool_total - r.lower_bound);
        assert_eq!(
            r.ledger.iter().map(|e| e.fragmentation).sum::<u64>(),
            r.fragmentation_words
        );
        assert_eq!(r.ledger.len(), r.edges);
        assert!(r.lower_bound <= r.pool_total);
    }

    #[test]
    fn document_parses_and_has_the_envelope() {
        let r = report();
        let doc_text = r.to_json();
        assert!(doc_text.starts_with(&format!(
            "{{\"kind\":\"allocation_explain\",\"schema_version\":{},",
            sdf_trace::SCHEMA_VERSION
        )));
        let doc = parse(&doc_text).expect("valid JSON");
        assert_eq!(doc.get("graph").and_then(Json::as_str), Some("fig2"));
        let ledger = doc.get("ledger").and_then(Json::as_array).unwrap();
        assert_eq!(ledger.len(), 2);
        let timeline = doc.get("timeline").unwrap();
        assert_eq!(
            timeline.get("peak_occupied").and_then(Json::as_num),
            Some(r.pool_total as f64)
        );
        assert!(timeline
            .get("samples")
            .and_then(Json::as_array)
            .is_some_and(|s| !s.is_empty()));
    }

    #[test]
    fn document_is_deterministic() {
        assert_eq!(report().to_json(), report().to_json());
    }

    #[test]
    fn text_rendering_covers_every_buffer() {
        let r = report();
        let text = r.render_text(None).unwrap();
        assert!(text.contains("`A->B`"));
        assert!(text.contains("`B->C`"));
        assert!(text.contains("pool occupancy"));
        // Filtered rendering keeps only the named buffer.
        let only = r.render_text(Some("A->B")).unwrap();
        assert!(only.contains("`A->B`"));
        assert!(!only.contains("`B->C`"));
        assert!(r.render_text(Some("no-such")).is_none());
    }

    #[test]
    fn ascii_profile_shows_live_words() {
        let r = report();
        let chart = r.ascii_profile(40, 6);
        assert!(chart.contains('#'));
        assert!(chart.lines().count() >= 8);
    }
}
