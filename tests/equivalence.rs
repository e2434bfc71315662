//! Cross-algorithm, cross-granularity equivalence tests through the public
//! API, including seeded randomised sweeps over generated temporal graphs
//! (property-based tests with a deterministic, offline case source).
//!
//! The central invariant of the whole project: every algorithm (Tiernan,
//! Johnson, Read-Tarjan), at every granularity (sequential, coarse-grained,
//! fine-grained) and any thread count, enumerates exactly the same set of
//! cycles. The reference side of every comparison is the shared oracle
//! module `pce_core::testing` — one oracle, used everywhere.

use parallel_cycle_enumeration::core::testing;
use parallel_cycle_enumeration::prelude::*;

/// Runs `query` on a fresh 4-thread engine and returns its cycles in
/// canonical, sorted form.
fn canonical(graph: &TemporalGraph, query: Query) -> Result<Vec<Cycle>, EnumerationError> {
    let result = Engine::with_threads(4).run(&query.collect(CollectMode::Collect), graph)?;
    let mut cycles: Vec<Cycle> = result
        .cycles
        .unwrap()
        .iter()
        .map(|c| c.canonicalize())
        .collect();
    cycles.sort_by(|a, b| a.edges.cmp(&b.edges));
    Ok(cycles)
}

fn simple_query(algo: Algorithm, gran: Granularity, delta: i64) -> Query {
    Query::simple()
        .algorithm(algo)
        .granularity(gran)
        .window(delta)
}

fn canonical_simple(
    graph: &TemporalGraph,
    algo: Algorithm,
    gran: Granularity,
    delta: i64,
) -> Vec<Cycle> {
    canonical(graph, simple_query(algo, gran, delta)).unwrap()
}

fn canonical_temporal(
    graph: &TemporalGraph,
    algo: Algorithm,
    gran: Granularity,
    delta: i64,
) -> Vec<Cycle> {
    let query = Query::temporal()
        .algorithm(algo)
        .granularity(gran)
        .window(delta);
    canonical(graph, query).unwrap()
}

#[test]
fn gadget_graphs_agree_across_every_configuration() {
    let graphs = vec![
        generators::fig4a_exponential_cycles(9),
        generators::fig5a_infeasible_regions(6),
        generators::fig3a_pruning_gadget(4, 5),
        generators::complete_digraph(5),
        generators::directed_cycle(7),
    ];
    for graph in &graphs {
        let reference = canonical_simple(
            graph,
            Algorithm::Johnson,
            Granularity::Sequential,
            i64::MAX / 4,
        );
        for algo in [
            Algorithm::Johnson,
            Algorithm::ReadTarjan,
            Algorithm::Tiernan,
        ] {
            for gran in [
                Granularity::Sequential,
                Granularity::CoarseGrained,
                Granularity::FineGrained,
            ] {
                let query = simple_query(algo, gran, i64::MAX / 4);
                if (algo, gran) == (Algorithm::Tiernan, Granularity::FineGrained) {
                    // Tiernan has no fine-grained decomposition.
                    assert!(matches!(
                        canonical(graph, query),
                        Err(EnumerationError::UnsupportedCombination { .. })
                    ));
                    continue;
                }
                let got = canonical(graph, query).unwrap();
                assert_eq!(got, reference, "{algo:?}/{gran:?}");
            }
        }
    }
}

#[test]
fn planted_rings_found_by_every_temporal_configuration() {
    use parallel_cycle_enumeration::graph::generators::{transaction_rings, TransactionRingConfig};
    let cfg = TransactionRingConfig {
        num_accounts: 300,
        background_edges: 900,
        num_rings: 12,
        ring_len: (3, 5),
        time_span: 200_000,
        ring_span: 2_500,
        seed: 77,
    };
    let (graph, planted) = transaction_rings(cfg);
    let reference = canonical_temporal(
        &graph,
        Algorithm::Johnson,
        Granularity::Sequential,
        cfg.ring_span,
    );
    assert!(reference.len() >= planted);
    for algo in [Algorithm::Johnson, Algorithm::ReadTarjan] {
        for gran in [Granularity::CoarseGrained, Granularity::FineGrained] {
            let got = canonical_temporal(&graph, algo, gran, cfg.ring_span);
            assert_eq!(got, reference, "{algo:?}/{gran:?}");
        }
    }
}

#[test]
fn fine_grained_results_stable_across_repeated_runs() {
    // Work stealing makes execution nondeterministic; results must not be.
    let graph = generators::power_law_temporal(generators::RandomTemporalConfig {
        num_vertices: 60,
        num_edges: 260,
        time_span: 150,
        seed: 9009,
    });
    let reference = canonical_simple(&graph, Algorithm::Johnson, Granularity::Sequential, 20);
    for run in 0..5 {
        let got = canonical_simple(&graph, Algorithm::Johnson, Granularity::FineGrained, 20);
        assert_eq!(got, reference, "run {run}");
    }
}

/// All three algorithms agree with the shared brute-force oracle on random
/// sparse temporal multigraphs, sequentially and in parallel.
#[test]
fn prop_all_algorithms_agree() {
    for seed in 0..24u64 {
        let (graph, delta) = testing::random_case(1_000 + seed, 14, 70, 60);
        let reference = testing::oracle_simple(&graph, &SimpleCycleOptions::with_window(delta));
        for algo in [
            Algorithm::Johnson,
            Algorithm::ReadTarjan,
            Algorithm::Tiernan,
        ] {
            let got = canonical_simple(&graph, algo, Granularity::Sequential, delta);
            assert_eq!(got, reference, "seed {seed} {algo:?}");
        }
        let fine = canonical_simple(&graph, Algorithm::Johnson, Granularity::FineGrained, delta);
        assert_eq!(fine, reference, "seed {seed} fine Johnson");
        let fine_rt = canonical_simple(
            &graph,
            Algorithm::ReadTarjan,
            Granularity::FineGrained,
            delta,
        );
        assert_eq!(fine_rt, reference, "seed {seed} fine Read-Tarjan");
        // The temporal enumeration agrees with its own independent oracle.
        let temporal =
            canonical_temporal(&graph, Algorithm::Johnson, Granularity::FineGrained, delta);
        assert_eq!(
            temporal,
            testing::oracle_temporal(&graph, delta),
            "seed {seed} temporal"
        );
    }
}

/// Every reported simple cycle is structurally valid, vertex-disjoint and
/// fits in the requested window; every reported temporal cycle is
/// additionally strictly increasing in time.
#[test]
fn prop_reported_cycles_are_valid() {
    for seed in 0..24u64 {
        let (graph, delta) = testing::random_case(2_000 + seed, 14, 70, 60);
        let simple = canonical_simple(&graph, Algorithm::Johnson, Granularity::FineGrained, delta);
        for cycle in &simple {
            assert!(
                cycle.validate(&graph).is_ok(),
                "seed {seed}: {:?}",
                cycle.validate(&graph)
            );
            assert!(cycle.time_span(&graph) <= delta, "seed {seed}");
        }
        let temporal =
            canonical_temporal(&graph, Algorithm::Johnson, Granularity::FineGrained, delta);
        for cycle in &temporal {
            assert!(cycle.validate(&graph).is_ok(), "seed {seed}");
            assert!(cycle.is_temporal(&graph), "seed {seed}");
            assert!(cycle.time_span(&graph) <= delta, "seed {seed}");
        }
        // Temporal cycles are a subset of simple cycles under the same window.
        assert!(temporal.len() <= simple.len(), "seed {seed}");
    }
}

/// The temporal count from the bundled (path-bundling) counter equals the
/// unbundled enumeration count.
#[test]
fn prop_bundled_count_matches_enumeration() {
    use parallel_cycle_enumeration::core::bundle::bundled_temporal_count;
    use parallel_cycle_enumeration::core::TemporalCycleOptions;
    for seed in 0..24u64 {
        let (graph, delta) = testing::random_case(3_000 + seed, 10, 60, 30);
        let (bundled, _) =
            bundled_temporal_count(&graph, &TemporalCycleOptions::with_window(delta));
        let enumerated =
            canonical_temporal(&graph, Algorithm::Johnson, Granularity::Sequential, delta);
        assert_eq!(bundled, enumerated.len() as u64, "seed {seed}");
    }
}

/// Every granularity at every thread count counts the same roots and the
/// same cycle-union members: a root is counted before its union pass, and
/// its union's size right after it, whichever driver runs it. The
/// work-efficient searches (Theorem 6.1) also agree on their work: edge
/// visits, recursive calls and (Read-Tarjan) copies. Fine Johnson's work
/// depends on its steals (§5), and a fine temporal split copies a path.
#[test]
fn root_and_union_counters_agree_across_granularities() {
    const NAMES: [&str; 5] = [
        "roots",
        "union members",
        "edge visits",
        "recursive calls",
        "copies",
    ];
    for seed in [41u64, 42] {
        let graph = generators::power_law_temporal(generators::RandomTemporalConfig {
            num_vertices: 50,
            num_edges: 400,
            time_span: 300,
            seed,
        });
        // Each query with how many of the counters in `NAMES` must agree.
        let queries = [
            (
                "Johnson",
                simple_query(Algorithm::Johnson, Granularity::Sequential, 30),
                2,
            ),
            (
                "Read-Tarjan",
                simple_query(Algorithm::ReadTarjan, Granularity::Sequential, 30),
                5,
            ),
            ("temporal", Query::temporal().window(60), 4),
        ];
        for (name, query, agreeing) in queries {
            let counters = |gran: Granularity, threads: usize| {
                let query = query.clone().granularity(gran).collect(CollectMode::Count);
                let work = Engine::with_threads(threads)
                    .run(&query, &graph)
                    .unwrap()
                    .stats
                    .work;
                let all = [
                    work.total_roots(),
                    work.total_union_members(),
                    work.total_edge_visits(),
                    work.total_recursive_calls(),
                    work.total_copies(),
                ];
                all[..agreeing].to_vec()
            };
            let reference = counters(Granularity::Sequential, 1);
            assert!(
                reference[1] > 0,
                "seed {seed} {name}: no union members counted"
            );
            for gran in [
                Granularity::Sequential,
                Granularity::CoarseGrained,
                Granularity::FineGrained,
            ] {
                for threads in [1, 2, 4] {
                    assert_eq!(
                        counters(gran, threads),
                        reference,
                        "seed {seed} {name} {gran:?} x{threads}: {:?}",
                        &NAMES[..agreeing]
                    );
                }
            }
        }
    }
}
