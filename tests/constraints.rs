//! Capability tests for the constraint matrix of the paper's Table 2:
//! time-window constraints, cycle-length constraints, temporal cycles and
//! their combinations, exercised through the public API.

use parallel_cycle_enumeration::prelude::*;

/// A transaction-like graph with cycles of several lengths and time spans.
fn mixed_graph() -> TemporalGraph {
    GraphBuilder::new()
        // A fast 2-cycle: span 5.
        .add_edge(0, 1, 100)
        .add_edge(1, 0, 105)
        // A slow 2-cycle: span 500.
        .add_edge(2, 3, 200)
        .add_edge(3, 2, 700)
        // A temporal triangle: span 40.
        .add_edge(4, 5, 300)
        .add_edge(5, 6, 320)
        .add_edge(6, 4, 340)
        // A non-temporal triangle (timestamps out of order), span 40.
        .add_edge(7, 8, 460)
        .add_edge(8, 9, 440)
        .add_edge(9, 7, 420)
        // A 4-cycle, span 30.
        .add_edge(10, 11, 600)
        .add_edge(11, 12, 610)
        .add_edge(12, 13, 620)
        .add_edge(13, 10, 630)
        .build()
}

fn count_simple(graph: &TemporalGraph, window: Option<i64>, max_len: Option<usize>) -> u64 {
    let mut query = Query::simple().granularity(Granularity::FineGrained);
    if let Some(w) = window {
        query = query.window(w);
    }
    if let Some(l) = max_len {
        query = query.max_len(l);
    }
    Engine::with_threads(2).count(&query, graph).unwrap()
}

fn count_temporal(graph: &TemporalGraph, window: i64, max_len: Option<usize>) -> u64 {
    let mut query = Query::temporal()
        .granularity(Granularity::FineGrained)
        .window(window);
    if let Some(l) = max_len {
        query = query.max_len(l);
    }
    Engine::with_threads(2).count(&query, graph).unwrap()
}

#[test]
fn unconstrained_enumeration_finds_every_cycle() {
    let g = mixed_graph();
    assert_eq!(count_simple(&g, None, None), 5);
}

#[test]
fn time_window_constraints_filter_by_span() {
    let g = mixed_graph();
    // Window of 50 excludes only the slow 2-cycle (span 500).
    assert_eq!(count_simple(&g, Some(50), None), 4);
    // Window of 10 keeps only the fast 2-cycle.
    assert_eq!(count_simple(&g, Some(10), None), 1);
    // Window of 1000 keeps everything.
    assert_eq!(count_simple(&g, Some(1000), None), 5);
}

#[test]
fn cycle_length_constraints_filter_by_hop_count() {
    let g = mixed_graph();
    assert_eq!(count_simple(&g, None, Some(2)), 2);
    assert_eq!(count_simple(&g, None, Some(3)), 4);
    assert_eq!(count_simple(&g, None, Some(4)), 5);
}

#[test]
fn combined_window_and_length_constraints() {
    let g = mixed_graph();
    // Span ≤ 50 and at most 3 hops: fast 2-cycle + both triangles.
    assert_eq!(count_simple(&g, Some(50), Some(3)), 3);
    // Span ≤ 50 and at most 2 hops: only the fast 2-cycle.
    assert_eq!(count_simple(&g, Some(50), Some(2)), 1);
}

#[test]
fn temporal_cycles_require_increasing_timestamps() {
    let g = mixed_graph();
    // The non-temporal triangle (7,8,9) and the slow 2-cycle drop out at
    // window 50; the rest are temporal.
    assert_eq!(count_temporal(&g, 1000, None), 4);
    assert_eq!(count_temporal(&g, 50, None), 3);
    assert_eq!(count_temporal(&g, 50, Some(3)), 2);
}

#[test]
fn constraints_agree_across_algorithms_and_granularities() {
    let g = mixed_graph();
    let engine = Engine::with_threads(3);
    for algo in [Algorithm::Johnson, Algorithm::ReadTarjan] {
        for gran in [
            Granularity::Sequential,
            Granularity::CoarseGrained,
            Granularity::FineGrained,
        ] {
            let query = Query::simple()
                .algorithm(algo)
                .granularity(gran)
                .window(50)
                .max_len(3);
            let count = engine.count(&query, &g).unwrap();
            assert_eq!(count, 3, "{algo:?}/{gran:?}");
        }
    }
}

#[test]
fn self_loop_reporting_is_opt_in() {
    let g = GraphBuilder::new()
        .add_edge(0, 0, 1)
        .add_edge(1, 2, 2)
        .add_edge(2, 1, 3)
        .build();
    let engine = Engine::with_threads(1);
    let query = Query::simple().granularity(Granularity::Sequential);
    let without = engine.count(&query, &g).unwrap();
    assert_eq!(without, 1);
    let with = engine.count(&query.include_self_loops(true), &g).unwrap();
    assert_eq!(with, 2);
}

#[test]
fn workload_datasets_enumerate_consistently_at_small_scale() {
    // End-to-end check over the workload crate: a down-scaled dataset
    // enumerates the same cycles with the coarse and fine algorithms.
    let spec = dataset(DatasetId::CO);
    let mut small = spec;
    small.num_edges = 1_500;
    small.num_vertices = 150;
    let workload = small.build();
    let engine = Engine::with_threads(4);
    let query = Query::temporal().window(spec.delta_temporal);
    let coarse = engine
        .count(
            &query.clone().granularity(Granularity::CoarseGrained),
            &workload.graph,
        )
        .unwrap();
    let fine = engine
        .count(
            &query.granularity(Granularity::FineGrained),
            &workload.graph,
        )
        .unwrap();
    assert_eq!(coarse, fine);
    assert!(
        fine > 0,
        "the CollegeMsg stand-in should contain temporal cycles"
    );
}
