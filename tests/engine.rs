//! Integration tests for the `Engine` API: pool reuse, early termination
//! (`first_k`), streaming, and error paths for invalid queries.

use parallel_cycle_enumeration::prelude::*;
use std::sync::Arc;

/// `first_k` returns exactly `k` cycles and stops doing work: on the Figure
/// 4a gadget (2^(n-2) cycles behind one root edge) the truncated run must
/// visit far fewer edges than the full enumeration.
#[test]
fn first_k_returns_exactly_k_and_stops_early() {
    let graph = generators::fig4a_exponential_cycles(14);
    let total = generators::fig4a_cycle_count(14);
    let engine = Engine::with_threads(1);
    let query = Query::simple().granularity(Granularity::Sequential);

    let full = engine.run(&query, &graph).unwrap();
    assert_eq!(full.stats.cycles, total);
    let full_visits = full.stats.work.total_edge_visits();

    let k = 4;
    let truncated = engine.first_k(k, &query, &graph).unwrap();
    let cycles = truncated.cycles.unwrap();
    assert_eq!(cycles.len(), k, "exactly k cycles");
    assert_eq!(truncated.stats.cycles, k as u64);
    for cycle in &cycles {
        cycle.validate(&graph).expect("streamed cycles are valid");
    }
    let truncated_visits = truncated.stats.work.total_edge_visits();
    assert!(
        truncated_visits * 4 < full_visits,
        "early termination must skip most of the work: {truncated_visits} vs {full_visits}"
    );
    assert!(
        truncated.stats.work.total_recursive_calls() < full.stats.work.total_recursive_calls(),
        "early termination must skip recursive calls too"
    );
}

/// A search the sink stops still reports the work it did: every kernel
/// counts edge visits in locals and flushes them when it returns, also on
/// the early-stop path. Every cycle of Figure 4a has the same minimum edge,
/// and every cycle of a hub burst the same maximum edge, so each run stops
/// inside the one rooted search that does work: where a search flushes once
/// (the temporal DFS and the split skeleton of the delta search), a flush
/// that the stop path skipped would leave 0 visits.
#[test]
fn early_stop_flushes_the_work_counters() {
    use parallel_cycle_enumeration::core::delta::{self, DeltaKind, DeltaPlan, Schedule};
    use parallel_cycle_enumeration::graph::EdgeId;

    let graph = generators::fig4a_exponential_cycles(12);
    let engine = Engine::with_threads(1);
    let window = graph.time_span();
    let queries = [
        (
            "read_tarjan",
            Query::simple().algorithm(Algorithm::ReadTarjan),
        ),
        ("temporal", Query::temporal().window(window)),
    ];
    let check = |label: &str, full: u64, stopped: [u64; 2]| {
        assert!(stopped[0] > 0, "{label}: the stopped run flushed nothing");
        assert!(
            stopped[0] <= full,
            "{label}: {stopped:?} above the full run's {full}"
        );
        assert_eq!(stopped[0], stopped[1], "{label}: repeats disagree");
    };
    for (label, query) in queries {
        let query = query.granularity(Granularity::Sequential);
        let full = engine.run(&query, &graph).unwrap().stats;
        let stopped = [0, 1].map(|_| {
            let sink = FirstKSink::new(3);
            let stats = engine.run_with_sink(&query, &graph, &sink).unwrap();
            assert_eq!(sink.into_cycles().len(), 3, "{label}");
            stats.work.total_edge_visits()
        });
        check(label, full.work.total_edge_visits(), stopped);
    }

    let graph = generators::hub_burst(2, 8);
    let window = graph.time_span();
    let plans = [
        (
            "delta simple",
            DeltaKind::Simple(SimpleCycleOptions::with_window(window)),
        ),
        (
            "delta temporal",
            DeltaKind::Temporal(TemporalCycleOptions::with_window(window)),
        ),
    ];
    for (label, kind) in plans {
        let plan = DeltaPlan {
            kind,
            predicate: CyclePredicate::pass_all(),
        };
        let roots = 0..graph.num_edges() as EdgeId;
        let full = delta::run(
            &plan,
            Schedule::Sequential,
            &graph,
            roots.clone(),
            &CountingSink::new(),
            &mut Vec::new(),
        );
        let stopped = [0, 1].map(|_| {
            let sink = FirstKSink::new(3);
            let stats = delta::run(
                &plan,
                Schedule::Sequential,
                &graph,
                roots.clone(),
                &sink,
                &mut Vec::new(),
            );
            assert_eq!(sink.into_cycles().len(), 3, "{label}");
            stats.work.total_edge_visits()
        });
        check(label, full.work.total_edge_visits(), stopped);
    }
}

/// Early termination also holds across every parallel configuration, and the
/// pool survives to serve the next (full) query.
#[test]
fn first_k_is_exact_under_parallel_execution() {
    let graph = generators::fig4a_exponential_cycles(12);
    let total = generators::fig4a_cycle_count(12);
    let engine = Engine::with_threads(4);
    for granularity in [Granularity::CoarseGrained, Granularity::FineGrained] {
        for algorithm in [Algorithm::Johnson, Algorithm::ReadTarjan] {
            let query = Query::simple()
                .algorithm(algorithm)
                .granularity(granularity);
            let result = engine.first_k(7, &query, &graph).unwrap();
            assert_eq!(
                result.cycles.unwrap().len(),
                7,
                "{algorithm:?}/{granularity:?}"
            );
            // The engine's pool is not deadlocked: a full run still works.
            assert_eq!(engine.count(&query, &graph).unwrap(), total);
        }
    }
}

/// Repeated runs on one engine (one pool) agree with runs on a fresh engine
/// (and therefore a fresh pool) per call.
#[test]
fn engine_reuse_matches_fresh_pool_runs() {
    let graph = generators::power_law_temporal(generators::RandomTemporalConfig {
        num_vertices: 40,
        num_edges: 180,
        time_span: 90,
        seed: 17,
    });
    let engine = Engine::with_threads(3);
    let query = Query::simple().window(25);
    let first = engine.count(&query, &graph).unwrap();
    let second = engine.count(&query, &graph).unwrap();
    assert_eq!(first, second, "reused pool must not change results");
    let fresh = Engine::with_threads(3)
        .count(
            &Query::simple()
                .granularity(Granularity::FineGrained)
                .window(25),
            &graph,
        )
        .unwrap();
    assert_eq!(first, fresh, "engine must agree with a fresh engine");

    // Mixed kinds over the same engine.
    let temporal = engine.count(&Query::temporal().window(25), &graph).unwrap();
    let temporal_fresh = Engine::with_threads(3)
        .count(&Query::temporal().window(25), &graph)
        .unwrap();
    assert_eq!(temporal, temporal_fresh);
    assert!(temporal <= first, "temporal cycles are a subset");
}

/// Invalid queries are rejected with typed errors instead of running a
/// different configuration or panicking mid-run.
#[test]
fn invalid_queries_are_rejected() {
    let graph = generators::directed_cycle(4);
    let engine = Engine::with_threads(2);

    let err = engine
        .count(&Query::simple().window(0), &graph)
        .unwrap_err();
    assert_eq!(err, EnumerationError::InvalidWindow { delta: 0 });

    let err = engine
        .count(&Query::temporal().window(-3), &graph)
        .unwrap_err();
    assert_eq!(err, EnumerationError::InvalidWindow { delta: -3 });

    let err = engine
        .count(&Query::simple().max_len(0), &graph)
        .unwrap_err();
    assert_eq!(err, EnumerationError::InvalidMaxLen);

    let err = engine
        .count(
            &Query::simple()
                .algorithm(Algorithm::Tiernan)
                .granularity(Granularity::FineGrained),
            &graph,
        )
        .unwrap_err();
    assert!(matches!(
        err,
        EnumerationError::UnsupportedCombination { .. }
    ));

    let err = engine
        .run(&Query::temporal().algorithm(Algorithm::Tiernan), &graph)
        .unwrap_err();
    assert!(matches!(
        err,
        EnumerationError::UnsupportedCombination { .. }
    ));

    // Streams validate up front too — no thread is spawned for a bad query.
    let err = engine
        .stream(&Query::simple().window(0), Arc::new(graph))
        .map(|_| ())
        .unwrap_err();
    assert_eq!(err, EnumerationError::InvalidWindow { delta: 0 });
}

/// A fully drained stream yields every cycle the counting run reports.
#[test]
fn stream_drains_completely() {
    let graph = Arc::new(generators::fig4a_exponential_cycles(10));
    let engine = Engine::with_threads(2);
    let query = Query::simple();
    let expected = engine.count(&query, &graph).unwrap();

    let stream = engine.stream(&query, Arc::clone(&graph)).unwrap();
    let cycles: Vec<Cycle> = stream.collect();
    assert_eq!(cycles.len() as u64, expected);
    for cycle in &cycles {
        cycle.validate(&graph).expect("streamed cycles are valid");
    }
}

/// Dropping a stream mid-way cancels the enumeration without deadlocking the
/// pool; the engine serves subsequent queries normally.
#[test]
fn dropping_a_stream_early_cancels_without_deadlock() {
    // Big enough that the producer cannot finish before the drop: ~2.6e5
    // cycles against a 1024-slot channel buffer.
    let graph = Arc::new(generators::fig4a_exponential_cycles(20));
    let engine = Engine::with_threads(4);
    let query = Query::simple();

    let mut stream = engine.stream(&query, Arc::clone(&graph)).unwrap();
    let mut taken = Vec::new();
    for _ in 0..10 {
        taken.push(stream.next().expect("enumeration yields plenty"));
    }
    let stats = stream.finish();
    assert!(
        stats.cycles < generators::fig4a_cycle_count(20),
        "run must have been truncated, got {} cycles",
        stats.cycles
    );
    for cycle in &taken {
        cycle.validate(&graph).expect("streamed cycles are valid");
    }

    // The pool is idle again: a small full query on the same engine works.
    let small = generators::directed_cycle(5);
    assert_eq!(engine.count(&query, &small).unwrap(), 1);
}

/// An undrained, backpressured stream must not starve the engine's own pool:
/// a blocking query issued on the same engine while the stream's channel is
/// full still completes (streams run on their own dedicated pool).
#[test]
fn engine_stays_serviceable_while_a_stream_is_backpressured() {
    // ~2.6e5 cycles against a 1024-slot buffer: the stream's producers are
    // guaranteed to be parked on channel sends while we query.
    let graph = Arc::new(generators::fig4a_exponential_cycles(20));
    let engine = Engine::with_threads(2);
    let query = Query::simple();

    let mut stream = engine.stream(&query, Arc::clone(&graph)).unwrap();
    // Pull one cycle so the producer is definitely up and filling the buffer.
    assert!(stream.next().is_some());

    // This would deadlock permanently if the stream occupied the engine pool.
    let small = generators::directed_cycle(6);
    assert_eq!(engine.count(&query, &small).unwrap(), 1);

    drop(stream);
    assert_eq!(engine.count(&query, &small).unwrap(), 1);
}

/// `run_with_sink` exposes the statically-dispatched sink extension point:
/// a custom sink sees every cycle and can stop the run.
#[test]
fn run_with_sink_supports_custom_sinks() {
    let graph = generators::fig4a_exponential_cycles(10);
    let engine = Engine::with_threads(2);
    let sink = FirstKSink::new(3);
    let stats = engine
        .run_with_sink(&Query::simple(), &graph, &sink)
        .unwrap();
    assert_eq!(stats.cycles, 3);
    assert_eq!(sink.into_cycles().len(), 3);
}

/// Collection mode on the query controls materialisation through `run`.
#[test]
fn collect_mode_controls_materialisation() {
    let graph = generators::complete_digraph(4);
    let engine = Engine::with_threads(2);
    let counted = engine.run(&Query::simple(), &graph).unwrap();
    assert!(counted.cycles.is_none());
    assert_eq!(counted.stats.cycles, 20);
    let collected = engine
        .run(&Query::simple().collect(CollectMode::Collect), &graph)
        .unwrap();
    assert_eq!(collected.cycles.unwrap().len(), 20);
}
