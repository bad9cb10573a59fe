//! ASCII Gantt rendering of buffer lifetimes — the textual equivalent of
//! the paper's Fig. 17 lifetime charts.
//!
//! Each buffer gets one row over the schedule clock; `#` marks steps where
//! the buffer is live.  Periodic gaps (the whole point of §8.4) are
//! immediately visible:
//!
//! ```text
//! (A,B)  w1 |##--##---##--##---|
//! (B,C)  w1 |-##--##---##--##--|
//! ```

use std::fmt::Write as _;

use sdf_core::graph::SdfGraph;

use crate::tree::ScheduleTree;
use crate::wig::IntersectionGraph;

/// Renders the lifetime chart of every buffer in `wig` over the schedule
/// period of `tree`.
///
/// `max_width` caps the number of time columns; longer periods are
/// down-sampled (a column is `#` if any of its steps is live), so charts
/// of big systems stay terminal-sized.
pub fn render_gantt(
    graph: &SdfGraph,
    tree: &ScheduleTree,
    wig: &IntersectionGraph,
    max_width: usize,
) -> String {
    let period = tree.total_duration().max(1);
    let width = (period as usize).min(max_width.max(1));
    // steps per column, rounded up.
    let stride = period.div_ceil(width as u64);
    let cols = period.div_ceil(stride) as usize;

    let label_width = wig
        .buffers()
        .iter()
        .map(|b| {
            let e = graph.edge(b.edge);
            graph.actor_name(e.src).len() + graph.actor_name(e.snk).len() + 3
        })
        .max()
        .unwrap_or(4);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:label_width$}  size  |{}| period {period} steps ({} steps/column)",
        "buffer",
        "-".repeat(cols),
        stride
    );
    for b in wig.buffers() {
        let e = graph.edge(b.edge);
        let label = format!("({},{})", graph.actor_name(e.src), graph.actor_name(e.snk));
        let _ = write!(out, "{label:label_width$}  {:>4}  |", b.lifetime.size());
        for col in 0..cols {
            let lo = col as u64 * stride;
            let hi = (lo + stride).min(period);
            let live = (lo..hi).any(|t| b.lifetime.live_at(t));
            out.push(if live { '#' } else { '-' });
        }
        out.push_str("|\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdf_core::repetitions::RepetitionsVector;
    use sdf_core::schedule::SasTree;

    fn fig17() -> (SdfGraph, ScheduleTree, IntersectionGraph) {
        let mut g = SdfGraph::new("fig17");
        let s = g.add_actor("S");
        let ids: Vec<_> = ["A", "B", "C", "D", "E"]
            .iter()
            .map(|n| g.add_actor(*n))
            .collect();
        g.add_edge(s, ids[0], 4, 1).unwrap();
        for w in ids.windows(2) {
            g.add_edge(w[0], w[1], 1, 1).unwrap();
        }
        let q = RepetitionsVector::compute(&g).unwrap();
        let sas = SasTree::branch(
            1,
            SasTree::leaf(s, 1),
            SasTree::branch(
                2,
                SasTree::branch(
                    2,
                    SasTree::branch(1, SasTree::leaf(ids[0], 1), SasTree::leaf(ids[1], 1)),
                    SasTree::branch(1, SasTree::leaf(ids[2], 1), SasTree::leaf(ids[3], 1)),
                ),
                SasTree::leaf(ids[4], 2),
            ),
        );
        let tree = ScheduleTree::build(&g, &q, &sas).unwrap();
        let wig = IntersectionGraph::build(&g, &q, &tree);
        (g, tree, wig)
    }

    #[test]
    fn full_resolution_shows_periodic_gaps() {
        let (g, tree, wig) = fig17();
        let chart = render_gantt(&g, &tree, &wig, 100);
        // Buffer (A,B) is live at steps 1,2 / 5,6 / 10,11 / 14,15 of 19.
        let ab_row = chart.lines().find(|l| l.starts_with("(A,B)")).unwrap();
        assert!(ab_row.contains("|-##--##---##--##---|"), "{chart}");
        // Every row has the same number of columns.
        let widths: std::collections::HashSet<usize> = chart
            .lines()
            .skip(1)
            .map(|l| l.chars().filter(|&c| c == '#' || c == '-').count())
            .collect();
        assert_eq!(widths.len(), 1, "{chart}");
    }

    #[test]
    fn downsampling_caps_width() {
        let (g, tree, wig) = fig17();
        let chart = render_gantt(&g, &tree, &wig, 5);
        let ab_row = chart.lines().find(|l| l.starts_with("(A,B)")).unwrap();
        let cols = ab_row.chars().filter(|&c| c == '#' || c == '-').count();
        assert!(cols <= 5, "{chart}");
        // Down-sampled rows must still show some live columns.
        assert!(ab_row.contains('#'), "{chart}");
    }
}
