//! Allocation-provenance invariants on every registry graph.
//!
//! The `allocation_explain` ledger and occupancy timeline are not
//! best-effort diagnostics: on every application graph the workspace
//! ships, the per-buffer fragmentation attributions must sum exactly
//! to the run's fragmentation total, and the occupancy
//! timeline's occupied-words peak must equal the shared pool size bit
//! for bit.

use sdf_service::{
    execute_request, ExplainReport, ResponsePayload, ServiceRequest, ServiceResponse,
};
use sdfmem::apps::registry::{cd_dat, table1_systems};
use sdfmem::core::io::to_text;
use sdfmem::trace::json::{parse, Json};

#[test]
fn explain_invariants_hold_on_every_registry_graph() {
    let mut graphs = table1_systems();
    graphs.push(cd_dat());
    assert!(graphs.len() > 10, "registry unexpectedly small");
    for graph in &graphs {
        let report = ExplainReport::build(graph)
            .unwrap_or_else(|e| panic!("{}: explain failed: {}", graph.name(), e.message));
        // Every buffer has exactly one ledger entry.
        assert_eq!(report.ledger.len(), report.edges, "{}", graph.name());
        // Ledger invariant: attributions sum to the run total.
        let ledger_sum: u64 = report.ledger.iter().map(|e| e.fragmentation).sum();
        assert_eq!(
            ledger_sum,
            report.fragmentation_words,
            "{}: ledger does not sum to the run's fragmentation",
            graph.name()
        );
        // Occupancy invariant: the occupied peak is the pool size.
        assert_eq!(
            report.peak_occupied,
            report.pool_total,
            "{}: occupancy peak must equal the shared pool size",
            graph.name()
        );
        assert!(report.lower_bound <= report.pool_total, "{}", graph.name());
        assert_eq!(
            report.waste,
            report.pool_total - report.lower_bound,
            "{}",
            graph.name()
        );
        // The document round-trips through the workspace's own parser
        // and preserves both invariants.
        let doc = parse(&report.to_json())
            .unwrap_or_else(|e| panic!("{}: bad explain JSON: {e}", graph.name()));
        assert_eq!(
            doc.get("kind").and_then(Json::as_str),
            Some("allocation_explain"),
            "{}",
            graph.name()
        );
        let json_sum: f64 = doc
            .get("ledger")
            .and_then(Json::as_array)
            .expect("ledger array")
            .iter()
            .map(|e| e.get("fragmentation").and_then(Json::as_num).unwrap())
            .sum();
        #[allow(clippy::cast_precision_loss)]
        {
            assert_eq!(
                json_sum,
                report.fragmentation_words as f64,
                "{}",
                graph.name()
            );
        }
        assert_eq!(
            doc.get("timeline")
                .and_then(|t| t.get("peak_occupied"))
                .and_then(Json::as_num),
            doc.get("pool_total").and_then(Json::as_num),
            "{}",
            graph.name()
        );
    }
}

#[test]
fn explain_requests_return_the_same_document() {
    // The service op and the direct builder agree byte for byte.
    let graph = cd_dat();
    let request = ServiceRequest::Explain {
        graph: to_text(&graph),
    };
    let ServiceResponse::Ok(payload) = execute_request(&request) else {
        panic!("explain request failed");
    };
    let ResponsePayload::Explain { report } = payload else {
        panic!("explain produced a foreign payload");
    };
    let direct = ExplainReport::build(&graph).expect("direct build");
    assert_eq!(report.to_json(), direct.to_json());
}
