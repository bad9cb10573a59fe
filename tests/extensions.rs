//! Integration tests for the extension modules: the fine-grained model,
//! buffer merging, cyclic graphs, graph I/O and the exact MCW.

use rand::SeedableRng;

use sdfmem::alloc::{allocate, validate_allocation, AllocationOrder, PlacementPolicy};
use sdfmem::apps::random::{random_sdf_graph, RandomGraphConfig};
use sdfmem::apps::registry::{by_name, table1_systems};
use sdfmem::core::simulate::validate_schedule;
use sdfmem::core::RepetitionsVector;
use sdfmem::lifetime::clique::{mcw_exact, mcw_optimistic, mcw_pessimistic};
use sdfmem::lifetime::fine::FineIntersectionGraph;
use sdfmem::lifetime::merge::{CbpSpec, MergedGraph};
use sdfmem::lifetime::{tree::ScheduleTree, wig::IntersectionGraph};
use sdfmem::sched::cycles::acyclic_skeleton;
use sdfmem::sched::{apgan::apgan, sdppo::sdppo};

#[test]
fn fine_model_never_worse_than_coarse_on_random_graphs() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(99);
    for size in [5usize, 10, 20] {
        for _ in 0..10 {
            let g = random_sdf_graph(&RandomGraphConfig::paper_style(size), &mut rng);
            let q = RepetitionsVector::compute(&g).unwrap();
            let order = apgan(&g, &q).unwrap();
            let sas = sdppo(&g, &q, &order).unwrap().tree;
            let tree = ScheduleTree::build(&g, &q, &sas).unwrap();
            let coarse = IntersectionGraph::build(&g, &q, &tree);
            let fine = FineIntersectionGraph::build(&g, &q, &sas);
            let ac = allocate(
                &coarse,
                AllocationOrder::DurationDescending,
                PlacementPolicy::FirstFit,
            );
            let af = allocate(
                &fine,
                AllocationOrder::DurationDescending,
                PlacementPolicy::FirstFit,
            );
            validate_allocation(&fine, &af).unwrap();
            assert!(
                af.total() <= ac.total(),
                "{}: fine {} > coarse {}",
                g.name(),
                af.total(),
                ac.total()
            );
        }
    }
}

#[test]
fn fine_model_strictly_helps_on_feedback_ring() {
    // A 4-ring with a unit-delay feedback edge: the feedback buffer drains
    // at the first firing and refills at the last, so the fine model sees
    // the gap [1, 3) while the coarse model pins it for the whole period.
    use sdfmem::core::{SasTree, SdfGraph};
    let mut g = SdfGraph::new("ring4");
    let a = g.add_actor("A");
    let b = g.add_actor("B");
    let c = g.add_actor("C");
    let d = g.add_actor("D");
    g.add_edge(a, b, 1, 1).unwrap();
    g.add_edge(b, c, 1, 1).unwrap();
    g.add_edge(c, d, 1, 1).unwrap();
    g.add_edge_with_delay(d, a, 1, 1, 1).unwrap();
    let q = RepetitionsVector::compute(&g).unwrap();
    let sas = SasTree::branch(
        1,
        SasTree::branch(1, SasTree::leaf(a, 1), SasTree::leaf(b, 1)),
        SasTree::branch(1, SasTree::leaf(c, 1), SasTree::leaf(d, 1)),
    );
    let tree = ScheduleTree::build(&g, &q, &sas).unwrap();
    let coarse = IntersectionGraph::build(&g, &q, &tree);
    let fine = FineIntersectionGraph::build(&g, &q, &sas);
    // Feedback buffer (edge 3): live [0,1) and [3,4) only.
    assert_eq!(fine.buffers()[3].lifetime.intervals(), &[(0, 1), (3, 4)]);
    let ac = allocate(
        &coarse,
        AllocationOrder::DurationDescending,
        PlacementPolicy::FirstFit,
    );
    let af = allocate(
        &fine,
        AllocationOrder::DurationDescending,
        PlacementPolicy::FirstFit,
    );
    validate_allocation(&fine, &af).unwrap();
    assert!(
        af.total() < ac.total(),
        "fine {} should beat coarse {} here",
        af.total(),
        ac.total()
    );
}

#[test]
fn merging_never_hurts_on_practical_systems() {
    for graph in table1_systems() {
        let q = RepetitionsVector::compute(&graph).unwrap();
        let order = apgan(&graph, &q).unwrap();
        let sas = sdppo(&graph, &q, &order).unwrap().tree;
        let tree = ScheduleTree::build(&graph, &q, &sas).unwrap();
        let wig = IntersectionGraph::build(&graph, &q, &tree);
        let merged = MergedGraph::build(&graph, &wig, &CbpSpec::all_in_place(&graph));
        let plain = allocate(
            &wig,
            AllocationOrder::DurationDescending,
            PlacementPolicy::FirstFit,
        );
        let packed = allocate(
            &merged,
            AllocationOrder::DurationDescending,
            PlacementPolicy::FirstFit,
        );
        validate_allocation(&merged, &packed).unwrap();
        assert!(
            packed.total() <= plain.total(),
            "{}: merged {} > plain {}",
            graph.name(),
            packed.total(),
            plain.total()
        );
    }
}

#[test]
fn cyclic_graph_scheduled_through_skeleton() {
    // satrec with an added control feedback loop carrying ample delay.
    let mut g = by_name("satrec").unwrap();
    let v = g.actor_by_name("V").unwrap();
    let a = g.actor_by_name("A").unwrap();
    // q(A) = 1056, cons 1: delay 1056 covers one period.
    g.add_edge_with_delay(v, a, 1056, 1, 1056).unwrap();
    let q = RepetitionsVector::compute(&g).unwrap();
    assert!(!g.is_acyclic());
    let (skeleton, feedback) = acyclic_skeleton(&g, &q).unwrap();
    assert_eq!(feedback.len(), 1);
    let order = apgan(&skeleton, &q).unwrap();
    let sas = sdppo(&skeleton, &q, &order).unwrap().tree;
    // Valid on the FULL cyclic graph.
    validate_schedule(&g, &sas.to_looped_schedule(), &q).unwrap();
    // Lifetime analysis and allocation run on the full graph too: the
    // feedback buffer is solid whole-period.
    let tree = ScheduleTree::build(&g, &q, &sas).unwrap();
    let wig = IntersectionGraph::build(&g, &q, &tree);
    let alloc = allocate(
        &wig,
        AllocationOrder::DurationDescending,
        PlacementPolicy::FirstFit,
    );
    validate_allocation(&wig, &alloc).unwrap();
    // The feedback pool adds at least its delay to the footprint.
    assert!(alloc.total() >= 1056);
}

#[test]
fn exact_mcw_brackets_estimates_on_benchmarks() {
    for name in ["qmf12_2d", "qmf23_2d", "16qamModem", "overAddFFT", "cd2dat"] {
        let graph = match name {
            "cd2dat" => sdfmem::apps::dsp::cd_to_dat(),
            _ => by_name(name).unwrap(),
        };
        let q = RepetitionsVector::compute(&graph).unwrap();
        let order = apgan(&graph, &q).unwrap();
        let sas = sdppo(&graph, &q, &order).unwrap().tree;
        let tree = ScheduleTree::build(&graph, &q, &sas).unwrap();
        let wig = IntersectionGraph::build(&graph, &q, &tree);
        let Some(exact) = mcw_exact(&wig, 1 << 20) else {
            continue;
        };
        assert!(mcw_optimistic(&wig) <= exact, "{name}: mco above exact");
        assert!(exact <= mcw_pessimistic(&wig), "{name}: exact above mcp");
    }
}

#[test]
fn graph_io_round_trips_every_benchmark() {
    for graph in table1_systems() {
        let text = sdfmem::core::io::to_text(&graph);
        let back = sdfmem::core::io::parse_graph(&text).unwrap();
        assert_eq!(back.name(), graph.name());
        assert_eq!(back.actor_count(), graph.actor_count());
        assert_eq!(back.edge_count(), graph.edge_count());
        let q1 = RepetitionsVector::compute(&graph).unwrap();
        let q2 = RepetitionsVector::compute(&back).unwrap();
        assert_eq!(q1.as_slice(), q2.as_slice(), "{}", graph.name());
    }
}

#[test]
fn generated_c_has_balanced_braces_for_every_benchmark() {
    use sdfmem::codegen::generate_shared_c;
    for graph in table1_systems().into_iter().take(6) {
        let q = RepetitionsVector::compute(&graph).unwrap();
        let order = apgan(&graph, &q).unwrap();
        let sas = sdppo(&graph, &q, &order).unwrap().tree;
        let tree = ScheduleTree::build(&graph, &q, &sas).unwrap();
        let wig = IntersectionGraph::build(&graph, &q, &tree);
        let alloc = allocate(
            &wig,
            AllocationOrder::DurationDescending,
            PlacementPolicy::FirstFit,
        );
        let code = generate_shared_c(&graph, &q, &sas, &wig, &alloc).unwrap();
        let opens = code.matches('{').count();
        let closes = code.matches('}').count();
        assert_eq!(opens, closes, "{}", graph.name());
        assert!(code.contains("run_schedule"));
    }
}

#[test]
fn generated_c_compiles_if_cc_available() {
    // Syntax-check the generated C with a real compiler when one exists;
    // silently skip otherwise (CI containers may lack cc).
    let cc = ["cc", "gcc", "clang"].into_iter().find(|c| {
        std::process::Command::new(c)
            .arg("--version")
            .output()
            .is_ok()
    });
    let Some(cc) = cc else { return };

    let graph = by_name("satrec").unwrap();
    let q = RepetitionsVector::compute(&graph).unwrap();
    let order = apgan(&graph, &q).unwrap();
    let sas = sdppo(&graph, &q, &order).unwrap().tree;
    let tree = ScheduleTree::build(&graph, &q, &sas).unwrap();
    let wig = IntersectionGraph::build(&graph, &q, &tree);
    let alloc = allocate(
        &wig,
        AllocationOrder::DurationDescending,
        PlacementPolicy::FirstFit,
    );
    let code = sdfmem::codegen::generate_shared_c(&graph, &q, &sas, &wig, &alloc).unwrap();

    let dir = std::env::temp_dir().join("sdfmem-cc-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("satrec-{}.c", std::process::id()));
    std::fs::write(&path, &code).unwrap();
    let out = std::process::Command::new(cc)
        .args(["-fsyntax-only", "-Wall"])
        .arg(&path)
        .output()
        .expect("compiler runs");
    assert!(
        out.status.success(),
        "{cc} rejected generated C:\n{}\n{}",
        String::from_utf8_lossy(&out.stderr),
        code
    );
}
