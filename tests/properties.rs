//! Property-based tests over random SDF graphs and random periodic
//! lifetimes: invariants the whole stack must maintain no matter the
//! input.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};

use sdfmem::alloc::{allocate, validate_allocation, AllocationOrder, PlacementPolicy};
use sdfmem::apps::random::{random_sdf_graph, RandomGraphConfig};
use sdfmem::core::simulate::validate_schedule;
use sdfmem::core::RepetitionsVector;
use sdfmem::lifetime::interval::{Period, PeriodicLifetime};
use sdfmem::lifetime::{tree::ScheduleTree, wig::IntersectionGraph};
use sdfmem::sched::topsort::random_topological_sort;
use sdfmem::sched::{apgan::apgan, dppo::dppo, rpmc::rpmc, sdppo::sdppo};

/// A strategy for structurally valid periodic lifetimes: nesting strides,
/// occurrence length within the innermost stride.  A stride factor of 1
/// makes a level abut the one inside it (`stride_i·count_i ==
/// stride_{i+1}`), and up to three levels reach multi-digit carries.
fn lifetime_strategy() -> impl Strategy<Value = PeriodicLifetime> {
    (
        0u64..50,                                        // start
        1u64..8,                                         // dur
        prop::collection::vec((1u64..5, 2u64..4), 0..4), // (stride factor, count)
        1u64..100,                                       // size
    )
        .prop_map(|(start, dur, levels, size)| {
            let mut periods = Vec::new();
            let mut stride = dur; // innermost stride >= dur
            for (factor, count) in levels {
                stride *= factor;
                periods.push(Period { stride, count });
                stride *= count;
            }
            PeriodicLifetime::periodic(start, dur, size, periods)
        })
}

/// Brute-force liveness by expanding all occurrences.
fn live_brute(lt: &PeriodicLifetime, t: u64) -> bool {
    let mut starts = vec![lt.start()];
    for p in lt.periods() {
        let mut next = Vec::new();
        for s in &starts {
            for k in 0..p.count {
                next.push(s + k * p.stride);
            }
        }
        starts = next;
    }
    starts.iter().any(|&s| s <= t && t < s + lt.dur())
}

proptest! {
    #[test]
    fn liveness_query_matches_brute_force(lt in lifetime_strategy(), t in 0u64..400) {
        prop_assert_eq!(lt.live_at(t), live_brute(&lt, t));
    }

    #[test]
    fn next_occurrence_is_correct(lt in lifetime_strategy(), t in 0u64..400) {
        // The reported next occurrence start is >= t, is a real occurrence
        // start, and no occurrence start lies in [t, reported).
        match lt.next_occurrence_at_or_after(t) {
            Some(s) => {
                prop_assert!(s >= t);
                prop_assert!(lt.live_at(s));
                prop_assert!(s == lt.start() || !lt.live_at(s.saturating_sub(1)) || lt.dur() > 1);
                for x in t..s {
                    // No occurrence may *start* strictly before s in [t, s).
                    if lt.live_at(x) {
                        // x can only be live as the tail of an occurrence
                        // that started before t.
                        prop_assert!(x < t + lt.dur());
                    }
                }
            }
            None => {
                // All occurrence starts are before t.
                prop_assert!(t > lt.start());
            }
        }
    }

    #[test]
    fn intersection_symmetric_and_conservative(
        a in lifetime_strategy(),
        b in lifetime_strategy()
    ) {
        prop_assert_eq!(a.intersects(&b), b.intersects(&a));
        // Brute-force ground truth over the shared horizon.
        let horizon = a.envelope_end().max(b.envelope_end());
        let truth = (0..horizon).any(|t| live_brute(&a, t) && live_brute(&b, t));
        // The exact test matches truth whenever enumeration is feasible
        // (always, for these small strategies).
        prop_assert_eq!(a.intersects(&b), truth);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn pipeline_invariants_on_random_graphs(seed in 0u64..500, size in 3usize..24) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let graph = random_sdf_graph(&RandomGraphConfig::paper_style(size), &mut rng);
        let q = RepetitionsVector::compute(&graph).expect("consistent by construction");

        for order in [
            rpmc(&graph, &q).expect("acyclic"),
            apgan(&graph, &q).expect("acyclic"),
            random_topological_sort(&graph, &mut rng).expect("acyclic"),
        ] {
            // DPPO: estimate equals simulated bufmem.
            let nonshared = dppo(&graph, &q, &order).expect("dppo");
            let sim = validate_schedule(&graph, &nonshared.tree.to_looped_schedule(), &q)
                .expect("dppo schedule must be valid");
            prop_assert_eq!(sim.bufmem(), nonshared.bufmem);

            // SDPPO: schedule valid; allocation conflict-free and no worse
            // than the non-shared total of its own schedule.
            let shared = sdppo(&graph, &q, &order).expect("sdppo");
            validate_schedule(&graph, &shared.tree.to_looped_schedule(), &q)
                .expect("sdppo schedule must be valid");
            let tree = ScheduleTree::build(&graph, &q, &shared.tree).expect("tree");
            let wig = IntersectionGraph::build(&graph, &q, &tree);
            for (ord, pol) in [
                (AllocationOrder::DurationDescending, PlacementPolicy::FirstFit),
                (AllocationOrder::StartAscending, PlacementPolicy::FirstFit),
                (AllocationOrder::Insertion, PlacementPolicy::FirstFit),
                (AllocationOrder::DurationDescending, PlacementPolicy::BestFit),
            ] {
                let alloc = allocate(&wig, ord, pol);
                validate_allocation(&wig, &alloc).expect("allocation must be conflict-free");
                prop_assert!(alloc.total() <= wig.total_size());
            }
        }
    }

    #[test]
    fn provenance_ledger_and_occupancy_invariants(seed in 0u64..500, size in 3usize..24) {
        use sdfmem::alloc::allocate_with_provenance;
        use sdfmem::lifetime::occupancy::OccupancyTimeline;

        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let graph = random_sdf_graph(&RandomGraphConfig::paper_style(size), &mut rng);
        let q = RepetitionsVector::compute(&graph).expect("consistent by construction");
        let order = apgan(&graph, &q).expect("acyclic");
        let shared = sdppo(&graph, &q, &order).expect("sdppo");
        let tree = ScheduleTree::build(&graph, &q, &shared.tree).expect("tree");
        let wig = IntersectionGraph::build(&graph, &q, &tree);
        for (ord, pol) in [
            (AllocationOrder::DurationDescending, PlacementPolicy::FirstFit),
            (AllocationOrder::StartAscending, PlacementPolicy::FirstFit),
            (AllocationOrder::Insertion, PlacementPolicy::FirstFit),
            (AllocationOrder::DurationDescending, PlacementPolicy::BestFit),
        ] {
            // The audit layer is pure observation: same offsets as the
            // plain allocator.
            let plain = allocate(&wig, ord, pol);
            let recorder = std::sync::Arc::new(sdfmem::trace::Recorder::new());
            // Thread-scoped: other tests of this binary run concurrently
            // and must not bleed into the counters read below.
            let (alloc, log) = sdfmem::trace::scoped_thread(&recorder, || {
                allocate_with_provenance(&wig, ord, pol)
            });
            prop_assert_eq!(plain.offsets(), alloc.offsets());

            // Ledger invariant: the per-decision fragmentation
            // attributions sum exactly to the run's traced total, the
            // per-run counter the regression sentinel gates.
            let snap = recorder.snapshot();
            let run_total = snap
                .counters
                .iter()
                .find(|(n, _)| n == "alloc.first_fit.fragmentation")
                .map(|&(_, v)| v)
                .expect("per-run fragmentation counter");
            let ledger_sum: u64 = log.decisions.iter().map(|d| d.fragmentation).sum();
            prop_assert_eq!(ledger_sum, run_total);
            prop_assert_eq!(log.fragmentation_words(), run_total);

            // Occupancy invariant: the timeline's occupied peak equals
            // the allocator's pool size bit for bit, and the live peak
            // bounds it from below.
            let timeline = OccupancyTimeline::build(&wig, alloc.offsets());
            prop_assert_eq!(timeline.peak_occupied(), alloc.total());
            // The MCW lower bound never exceeds what any allocator
            // actually uses (the envelope-model live peak can, when
            // exact lifetimes interleave inside overlapping envelopes).
            prop_assert!(sdfmem::lifetime::mcw_optimistic(&wig) <= alloc.total());
        }
    }

    #[test]
    fn loopify_round_trips_and_never_grows(seq_spec in prop::collection::vec(0u8..4, 1..40)) {
        use sdfmem::core::ActorId;
        use sdfmem::sched::loopify::compress;
        let seq: Vec<ActorId> = seq_spec.iter().map(|&i| ActorId::from_index(i as usize)).collect();
        let r = compress(&seq, 0);
        let expanded: Vec<ActorId> = r.schedule.firings().collect();
        prop_assert_eq!(&expanded, &seq);
        // Code size never exceeds the flat encoding (runs coalesced).
        let mut runs = 1u64;
        for w in seq.windows(2) {
            if w[0] != w[1] {
                runs += 1;
            }
        }
        prop_assert!(r.code_size <= runs);
    }

    #[test]
    fn graph_io_round_trips_random_graphs(seed in 0u64..300) {
        use sdfmem::core::io::{parse_graph, to_text};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let cfg = RandomGraphConfig {
            actors: 10,
            edges: 16,
            max_rate_multiplier: 3,
            delay_probability: 0.3,
        };
        let g = random_sdf_graph(&cfg, &mut rng);
        let back = parse_graph(&to_text(&g)).expect("serialised graphs parse");
        prop_assert_eq!(back.actor_count(), g.actor_count());
        prop_assert_eq!(back.edge_count(), g.edge_count());
        let orig: Vec<_> = g.edges().map(|(_, e)| *e).collect();
        let round: Vec<_> = back.edges().map(|(_, e)| *e).collect();
        prop_assert_eq!(orig, round);
    }

    #[test]
    fn schedule_display_round_trips(seed in 0u64..200, size in 2usize..10) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let graph = random_sdf_graph(&RandomGraphConfig::paper_style(size), &mut rng);
        let q = RepetitionsVector::compute(&graph).expect("consistent");
        let order = apgan(&graph, &q).expect("acyclic");
        let sas = sdppo(&graph, &q, &order).expect("sdppo").tree;
        let schedule = sas.to_looped_schedule();
        let text = schedule.display(&graph).to_string();
        let back = sdfmem::core::LoopedSchedule::parse(&text, &graph)
            .unwrap_or_else(|e| panic!("reparse of {text:?} failed: {e}"));
        let a: Vec<_> = schedule.firings().collect();
        let b: Vec<_> = back.firings().collect();
        prop_assert_eq!(a, b, "{}", text);
    }

    #[test]
    fn fact1_factoring_preserves_validity_and_nonshared_bufmem(seed in 0u64..200, size in 2usize..12) {
        // Fact 1: fully factoring a valid SAS keeps it valid and never
        // increases bufmem under the non-shared model.
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let graph = random_sdf_graph(&RandomGraphConfig::paper_style(size), &mut rng);
        let q = RepetitionsVector::compute(&graph).expect("consistent");
        let order = rpmc(&graph, &q).expect("acyclic");
        // Use an sdppo schedule: its heuristic leaves some loops
        // unfactored, giving the transformation something to do.
        let s = sdppo(&graph, &q, &order).expect("sdppo").tree.to_looped_schedule();
        let f = s.fully_factored();
        let before = validate_schedule(&graph, &s, &q).expect("valid").bufmem();
        let after = validate_schedule(&graph, &f, &q)
            .expect("factored schedule must stay valid")
            .bufmem();
        prop_assert!(after <= before, "factoring increased bufmem: {after} > {before}");
    }

    #[test]
    fn input_buffer_requirement_bounded(seed in 0u64..100) {
        use sdfmem::core::timing::{source_buffer_requirement, ExecutionTimes};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let graph = random_sdf_graph(&RandomGraphConfig::paper_style(8), &mut rng);
        let q = RepetitionsVector::compute(&graph).expect("consistent");
        let Some(source) = graph.actors().find(|&a| graph.in_edges(a).is_empty()) else {
            return Ok(());
        };
        let order = apgan(&graph, &q).expect("acyclic");
        let sas = dppo(&graph, &q, &order).expect("dppo").tree;
        let exec = ExecutionTimes::uniform(&graph, 3);
        let req = source_buffer_requirement(
            &graph,
            &q,
            &sas.to_looped_schedule(),
            &exec,
            source,
        )
        .expect("valid schedule");
        // At least one slot, at most the whole period's worth of samples.
        prop_assert!(req >= 1);
        prop_assert!(req <= q.get(source));
    }

    #[test]
    fn engine_invariants_on_random_graphs(seed in 0u64..400, size in 2usize..9) {
        use sdfmem::AnalysisBuilder;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let graph = random_sdf_graph(&RandomGraphConfig::paper_style(size), &mut rng);
        let synthesis = AnalysisBuilder::new()
            .full(true)
            .run_full(&graph)
            .expect("engine on consistent random graph");
        let an = &synthesis.analysis;
        // Sharing never loses to the per-edge baseline.
        prop_assert!(an.shared_total() <= an.nonshared_bufmem);
        // Clique estimates bracket correctly.
        prop_assert!(an.mco <= an.mcp);
        // Every candidate's allocation is conflict-free and consistent
        // with its own WIG.
        for c in &synthesis.candidates {
            validate_allocation(&*c.wig, &c.allocation)
                .expect("every lattice candidate must allocate conflict-free");
            prop_assert_eq!(c.shared_total, c.allocation.total());
            prop_assert!(c.mco <= c.mcp);
            prop_assert!(c.shared_total <= c.wig.total_size());
        }
        // The recorded winner really is the lattice minimum.
        let min = synthesis.candidates.iter().map(|c| c.shared_total).min().unwrap();
        prop_assert_eq!(an.shared_total(), min);
    }

    #[test]
    fn wig_sweep_matches_brute_force_on_random_schedules(seed in 0u64..10_000, size in 3usize..20) {
        use sdfmem::lifetime::interval::buffer_lifetime;
        use sdfmem::lifetime::wig::Buffer;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let graph = random_sdf_graph(&RandomGraphConfig::paper_style(size), &mut rng);
        let q = RepetitionsVector::compute(&graph).expect("consistent");
        let order = apgan(&graph, &q).expect("acyclic");
        let sas = sdppo(&graph, &q, &order).expect("sdppo").tree;
        let tree = ScheduleTree::build(&graph, &q, &sas).expect("tree");
        let buffers: Vec<Buffer> = graph
            .edges()
            .map(|(id, _)| Buffer {
                edge: id,
                lifetime: buffer_lifetime(&graph, &q, &tree, id),
            })
            .collect();
        let sweep = IntersectionGraph::from_buffers(buffers.clone());
        let brute = IntersectionGraph::from_buffers_all_pairs(buffers);
        for i in 0..sweep.len() {
            prop_assert_eq!(sweep.neighbours(i), brute.neighbours(i));
        }
    }

    #[test]
    fn random_graphs_with_delays_still_allocate_safely(seed in 0u64..200) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let cfg = RandomGraphConfig {
            actors: 12,
            edges: 18,
            max_rate_multiplier: 2,
            delay_probability: 0.3,
        };
        let graph = random_sdf_graph(&cfg, &mut rng);
        let q = RepetitionsVector::compute(&graph).expect("consistent");
        let order = apgan(&graph, &q).expect("acyclic");
        let shared = sdppo(&graph, &q, &order).expect("sdppo");
        validate_schedule(&graph, &shared.tree.to_looped_schedule(), &q)
            .expect("schedule must respect delays");
        let tree = ScheduleTree::build(&graph, &q, &shared.tree).expect("tree");
        let wig = IntersectionGraph::build(&graph, &q, &tree);
        let alloc = allocate(&wig, AllocationOrder::DurationDescending, PlacementPolicy::FirstFit);
        validate_allocation(&wig, &alloc).expect("conflict-free");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The windowed DP must be bit-identical to the dense
    /// exact scan — values, bufmem AND chosen split trees — on random
    /// rate-changing chains with sporadic delays, for both the Sum (DPPO)
    /// and Max (SDPPO) recurrences.
    #[test]
    fn windowed_dp_is_bit_identical_to_exact_on_random_chains(seed in 0u64..1_000_000) {
        use sdfmem::core::SdfGraph;
        use sdfmem::sched::{
            dppo_from_tables, sdppo_from_tables, ChainTables, DpMode, FactoringPolicy,
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut rates = || -> (u64, u64) {
            // Mostly-homogeneous chains with sparse converters, like real
            // multistage systems; bounded ratios keep q in u64 range.
            if rng.gen_bool(0.7) {
                (1, 1)
            } else {
                [(1, 2), (2, 1), (2, 3), (3, 2), (1, 3), (3, 1)]
                    [rng.gen_range(0..6)]
            }
        };
        let mut rng2 = rand::rngs::StdRng::seed_from_u64(seed ^ 0xD1CE);
        let n = 2 + (seed % 27) as usize;
        let mut g = SdfGraph::new("chain");
        let ids: Vec<_> = (0..n).map(|i| g.add_actor(format!("a{i}"))).collect();
        for i in 0..n - 1 {
            let (prod, cons) = rates();
            let delay = if rng2.gen_bool(0.15) { cons * rng2.gen_range(1..=2u64) } else { 0 };
            g.add_edge_with_delay(ids[i], ids[i + 1], prod, cons, delay).expect("rates");
        }
        let q = RepetitionsVector::compute(&g).expect("chains are consistent");
        let order = g.chain_order().expect("chain");
        let ct = ChainTables::build(&g, &q, &order).expect("topological");

        let e = dppo_from_tables(&ct, &q, DpMode::Exact);
        let w = dppo_from_tables(&ct, &q, DpMode::Windowed);
        prop_assert_eq!(e.bufmem, w.bufmem);
        prop_assert_eq!(e.tree, w.tree);

        let es = sdppo_from_tables(&ct, &q, FactoringPolicy::Heuristic, DpMode::Exact);
        let ws = sdppo_from_tables(&ct, &q, FactoringPolicy::Heuristic, DpMode::Windowed);
        prop_assert_eq!(es.shared_cost, ws.shared_cost);
        prop_assert_eq!(es.tree, ws.tree);
    }
}

/// One chain edge: `(prod, cons, delay)` plus an optional parallel edge
/// `(rate multiplier, delay)` over the same actor pair.
type ChainEdgeSpec = ((u64, u64, u64), Option<(u64, u64)>);

/// A random rate-changing chain with sporadic delays and parallel edges
/// (each parallel edge scales its twin's rates, so the chain stays
/// consistent).
fn random_chain_spec(seed: u64) -> Vec<ChainEdgeSpec> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let edges = 1 + (seed % 26) as usize;
    (0..edges)
        .map(|_| {
            let (prod, cons) = if rng.gen_bool(0.6) {
                (1, 1)
            } else {
                [(1, 2), (2, 1), (2, 3), (3, 2), (1, 3), (3, 1)][rng.gen_range(0..6)]
            };
            let delay = if rng.gen_bool(0.2) {
                cons * rng.gen_range(1..=3u64)
            } else {
                0
            };
            let twin = rng
                .gen_bool(0.25)
                .then(|| (rng.gen_range(2..=3u64), rng.gen_range(0..=2u64) * cons));
            ((prod, cons, delay), twin)
        })
        .collect()
}

fn chain_from_spec(spec: &[ChainEdgeSpec]) -> (sdfmem::core::SdfGraph, Vec<sdfmem::core::ActorId>) {
    let mut g = sdfmem::core::SdfGraph::new("chain");
    let ids: Vec<_> = (0..=spec.len())
        .map(|i| g.add_actor(format!("a{i}")))
        .collect();
    for (w, &((prod, cons, delay), twin)) in spec.iter().enumerate() {
        g.add_edge_with_delay(ids[w], ids[w + 1], prod, cons, delay)
            .expect("rates");
        if let Some((m, d)) = twin {
            g.add_edge_with_delay(ids[w], ids[w + 1], prod * m, cons * m, d)
                .expect("rates");
        }
    }
    (g, ids)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Windowed SDPPO (the pruned bottom-up fill) against the dense exact
    /// scan under every factoring policy: same cost and same tree, cold
    /// (fresh tables per run) and warm (one table build shared by a DPPO
    /// run and every policy, as the engine shares an order's tables).
    #[test]
    fn windowed_sdppo_matches_exact_cold_and_warm(seed in 0u64..1_000_000) {
        use sdfmem::sched::{dppo_from_tables, sdppo_from_tables, ChainTables, DpMode, FactoringPolicy};
        let spec = random_chain_spec(seed);
        let (g, order) = chain_from_spec(&spec);
        let q = RepetitionsVector::compute(&g).expect("consistent by construction");
        let shared = ChainTables::build(&g, &q, &order).expect("topological");
        dppo_from_tables(&shared, &q, DpMode::Windowed);
        for policy in [FactoringPolicy::Heuristic, FactoringPolicy::Always, FactoringPolicy::Never] {
            let fresh = || ChainTables::build(&g, &q, &order).expect("topological");
            let exact = sdppo_from_tables(&fresh(), &q, policy, DpMode::Exact);
            let cold = sdppo_from_tables(&fresh(), &q, policy, DpMode::Windowed);
            let warm = sdppo_from_tables(&shared, &q, policy, DpMode::Windowed);
            for (label, r) in [("cold", &cold), ("warm", &warm)] {
                prop_assert_eq!(exact.shared_cost, r.shared_cost, "{:?} {}", policy, label);
                prop_assert_eq!(&exact.tree, &r.tree, "{:?} {}", policy, label);
            }
        }
    }
}

/// A chain whose every edge changes rate by a factor of 2, 3 or 5, with
/// sporadic delays: the per-pair bounds are loose everywhere, so windowed
/// DPPO's descent usually stops at a loose cell and hands the table to
/// the pruned fill.  Each prime's exponent in the running rate ratio
/// stays within ±2, which keeps the repetitions vector small.
fn mixed_factor_chain_spec(seed: u64) -> Vec<ChainEdgeSpec> {
    const FACTORS: [u64; 4] = [1, 2, 3, 5];
    const PRIMES: [u64; 3] = [2, 3, 5];
    let shift = |(prod, cons): (u64, u64), f: u64| (prod == f) as i32 - (cons == f) as i32;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut exps = [0i32; 3];
    let mut spec = Vec::new();
    for _ in 0..4 + (seed % 24) {
        let valid: Vec<_> = FACTORS
            .into_iter()
            .flat_map(|p| FACTORS.map(|c| (p, c)))
            .filter(|&(p, c)| p != c)
            .filter(|&r| {
                PRIMES
                    .iter()
                    .zip(exps)
                    .all(|(&f, e)| (e + shift(r, f)).abs() <= 2)
            })
            .collect();
        let (prod, cons) = valid[rng.gen_range(0..valid.len())];
        for (e, &f) in exps.iter_mut().zip(&PRIMES) {
            *e += shift((prod, cons), f);
        }
        let delay = if rng.gen_bool(0.15) { cons } else { 0 };
        spec.push(((prod, cons, delay), None));
    }
    spec
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Windowed DPPO against the dense exact scan on chains that make the
    /// descent stop: same bufmem and same tree.
    #[test]
    fn windowed_dppo_matches_exact_when_the_scan_gives_up(seed in 0u64..1_000_000) {
        use sdfmem::sched::{dppo_from_tables, ChainTables, DpMode};
        let spec = mixed_factor_chain_spec(seed);
        let (g, order) = chain_from_spec(&spec);
        let q = RepetitionsVector::compute(&g).expect("consistent by construction");
        let tables = ChainTables::build(&g, &q, &order).expect("topological");
        let exact = dppo_from_tables(&tables, &q, DpMode::Exact);
        let windowed = dppo_from_tables(&tables, &q, DpMode::Windowed);
        prop_assert_eq!(exact.bufmem, windowed.bufmem);
        prop_assert_eq!(&exact.tree, &windowed.tree);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Lowering a random consistent graph to the shared-model
    /// [`ExecutablePlan`] and firing it through the interpreter oracle
    /// must come back clean: the coarse periodic-lifetime model that
    /// sized the pool is an upper bound on what the flattened schedule
    /// actually touches, so peak live never exceeds the pool and no two
    /// live buffers ever overlap.
    #[test]
    fn random_shared_plans_execute_clean(seed in 0u64..300) {
        use sdfmem::codegen::{execute_plan, ExecutablePlan};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let cfg = RandomGraphConfig {
            actors: 10,
            edges: 14,
            max_rate_multiplier: 3,
            delay_probability: 0.25,
        };
        let graph = random_sdf_graph(&cfg, &mut rng);
        let q = RepetitionsVector::compute(&graph).expect("consistent");
        let order = apgan(&graph, &q).expect("acyclic");
        let shared = sdppo(&graph, &q, &order).expect("sdppo");
        let tree = ScheduleTree::build(&graph, &q, &shared.tree).expect("tree");
        let wig = IntersectionGraph::build(&graph, &q, &tree);
        let alloc = allocate(&wig, AllocationOrder::DurationDescending, PlacementPolicy::FirstFit);
        let plan = ExecutablePlan::lower_shared(&graph, &q, &shared.tree, &wig, &alloc)
            .expect("lowering");
        let report = execute_plan(&plan).expect("oracle must be clean");
        prop_assert_eq!(report.firings, q.total_firings());
        prop_assert!(report.peak_live_words <= plan.pool_words);
    }

    /// The non-shared plan over the same random graphs is clean too, and
    /// its pool equals the DPPO bufmem sum exactly.
    #[test]
    fn random_nonshared_plans_execute_clean(seed in 0u64..300) {
        use sdfmem::codegen::{execute_plan, ExecutablePlan};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xBEEF);
        let cfg = RandomGraphConfig {
            actors: 10,
            edges: 14,
            max_rate_multiplier: 3,
            delay_probability: 0.25,
        };
        let graph = random_sdf_graph(&cfg, &mut rng);
        let q = RepetitionsVector::compute(&graph).expect("consistent");
        let order = apgan(&graph, &q).expect("acyclic");
        let r = dppo(&graph, &q, &order).expect("dppo");
        let plan = ExecutablePlan::lower_nonshared(&graph, &q, &r.tree.to_looped_schedule())
            .expect("lowering");
        prop_assert_eq!(plan.pool_words, r.bufmem);
        let report = execute_plan(&plan).expect("oracle must be clean");
        prop_assert_eq!(report.firings, q.total_firings());
        prop_assert!(report.peak_live_words <= plan.pool_words);
    }
}

/// The oracle is falsifiable: force two simultaneously-live buffers onto
/// the same words (a deliberately corrupt allocation) and the
/// interpreter must refuse the plan rather than report it clean.
#[test]
fn deliberately_overlapping_allocation_trips_the_oracle() {
    use sdfmem::alloc::Allocation;
    use sdfmem::codegen::{execute_plan, ExecutablePlan};
    use sdfmem::core::SdfGraph;

    let mut g = SdfGraph::new("overlap");
    let a = g.add_actor("A");
    let b = g.add_actor("B");
    let c = g.add_actor("C");
    g.add_edge(a, b, 20, 10).unwrap();
    g.add_edge(b, c, 20, 10).unwrap();
    let q = RepetitionsVector::compute(&g).unwrap();
    let order = apgan(&g, &q).unwrap();
    let shared = sdppo(&g, &q, &order).unwrap();
    let tree = ScheduleTree::build(&g, &q, &shared.tree).unwrap();
    let wig = IntersectionGraph::build(&g, &q, &tree);
    // Both buffers at offset 0: their live ranges collide mid-schedule.
    let bad = Allocation::from_parts(vec![0; wig.len()], 20);
    let plan = ExecutablePlan::lower_shared(&g, &q, &shared.tree, &wig, &bad).unwrap();
    let err = execute_plan(&plan).unwrap_err().to_string();
    assert!(
        err.contains("overlap") || err.contains("poisoned"),
        "wrong diagnostic: {err}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Multi-mode synthesis over random mode sets: the merged
    /// allocation respects every cross-mode conflict, persistent
    /// buffers keep one offset in every mode, and the transition
    /// oracle conserves tokens over a randomized switch sequence that
    /// re-enters every mode.
    #[test]
    fn random_mode_graphs_share_one_pool_cleanly(seed in 0u64..10_000) {
        use sdfmem::apps::modes::random_mode_graph;
        use sdfmem::codegen::execute_mode_plan;
        use sdfmem::modes::synthesize_modes;

        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x3A0DE5);
        let cfg = RandomGraphConfig {
            actors: 6,
            edges: 8,
            max_rate_multiplier: 3,
            delay_probability: 0.2,
        };
        let n_modes = 2 + (seed as usize % 3);
        let delay = 1 + seed % 3;
        let mg = random_mode_graph(&cfg, n_modes, delay, &mut rng);
        let synth = synthesize_modes(&mg).expect("synthesis");

        // One pool, conflict-free: the merged graph encodes
        // persistent-vs-all and same-mode conflicts, and cross-mode
        // locals are free to overlap.
        validate_allocation(&synth.merged, &synth.merged_allocation)
            .expect("merged allocation must respect every conflict");
        prop_assert!(synth.gate_ok,
            "merged {} exceeds gate {}", synth.merged_pool_words, synth.gate_bound);
        prop_assert!(synth.merged_pool_words <= synth.sum_pool_words);

        // Persistent offsets survive every transition: each mode's
        // binding of the persistent edge sits at the table's offset.
        for p in &synth.plan.persistent {
            prop_assert_eq!(p.bindings.len(), synth.plan.modes.len());
            for (m, &ib) in p.bindings.iter().enumerate() {
                let b = &synth.plan.modes[m].plan.bindings[ib];
                prop_assert_eq!(b.offset, p.offset,
                    "mode {} moved persistent {} -> {}", m, &p.src, &p.snk);
                prop_assert_eq!(b.delay, p.delay);
            }
        }

        // The default round-robin sequence already ran inside
        // synthesize_modes; a randomized sequence visiting every mode
        // (with repeats and immediate re-entries) must be clean too.
        let mut sequence: Vec<usize> = (0..n_modes).collect();
        for _ in 0..(4 + seed as usize % 5) {
            sequence.push(rng.gen_range(0..n_modes));
        }
        let report = execute_mode_plan(&synth.plan, &sequence)
            .expect("random switch sequence must conserve tokens");
        prop_assert_eq!(report.transitions, sequence.len() as u64 - 1);
        prop_assert!(report.peak_live_words <= synth.plan.pool_words);
    }
}
