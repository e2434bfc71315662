//! Streaming-equivalence integration tests: the union of per-batch delta
//! results over a replayed stream must equal a one-shot enumeration of the
//! final window — for simple and temporal cycles, across seeds, batch sizes
//! (including batches that straddle window expiry), one-shot
//! algorithm/granularity combinations, streaming delta granularities and
//! streaming thread counts. The predicate sweep extends the fan-out harness
//! with attribute-filtered subscriptions: every fan-out strategy × pushdown
//! setting must report byte-identically to dedicated per-query engines, while
//! pushing the predicate union into the shared pass does strictly less
//! union-building work than filtering at fan-out.
//!
//! The seeded sweep takes its base seed from the `PCE_SWEEP_SEED` environment
//! variable (CI passes one per run and echoes it), so a failure in a CI log
//! is reproducible locally with the same value; every assertion message
//! carries the seed.

use parallel_cycle_enumeration::core::testing::{
    oracle_with_predicates, random_temporal_stream, StreamSpec,
};
use parallel_cycle_enumeration::graph::generators::{
    hub_burst, hub_burst_cycle_count, power_law_temporal, uniform_temporal, RandomTemporalConfig,
};
use parallel_cycle_enumeration::prelude::*;
use parallel_cycle_enumeration::workloads::streaming::large_portfolio;

/// Replays prepared ingest batches through a streaming engine, returning the
/// canonicalised union of all per-batch results plus the engine (for its
/// final window/snapshot).
fn replay_stream(
    batches: &[Vec<TemporalEdge>],
    query: StreamingQuery,
    retention: i64,
    threads: usize,
) -> (Vec<StreamCycle>, StreamingEngine) {
    let mut engine =
        StreamingEngine::with_threads(retention, query, threads).expect("valid streaming config");
    let mut union: Vec<StreamCycle> = Vec::new();
    for batch in batches {
        let report = engine.ingest(batch).expect("in-order replay");
        union.extend(report.cycles);
    }
    (sort_canonical(&union), engine)
}

/// Replays `graph`'s edges (already in stream order) in batches of
/// `batch_edges` — the graph-backed wrapper over [`replay_stream`] for sweeps
/// whose one-shot reference needs the full graph.
fn replay(
    graph: &TemporalGraph,
    query: StreamingQuery,
    retention: i64,
    batch_edges: usize,
    threads: usize,
) -> (Vec<StreamCycle>, StreamingEngine) {
    let batches: Vec<Vec<TemporalEdge>> = graph
        .edges()
        .chunks(batch_edges)
        .map(<[_]>::to_vec)
        .collect();
    replay_stream(&batches, query, retention, threads)
}

/// The deterministic comparison form used throughout: canonicalise every
/// cycle, then sort. Two result sets are equal iff these are byte-identical.
fn sort_canonical(cycles: &[StreamCycle]) -> Vec<StreamCycle> {
    let mut canon: Vec<StreamCycle> = cycles.iter().map(StreamCycle::canonicalize).collect();
    canon.sort_by(|a, b| a.edges.cmp(&b.edges));
    canon
}

/// One-shot enumeration over `graph`, resolved to edge triples and
/// canonicalised the same way as the streaming results.
fn one_shot(
    graph: &TemporalGraph,
    query: &Query,
    algorithm: Algorithm,
    granularity: Granularity,
) -> Vec<StreamCycle> {
    let engine = Engine::with_threads(2);
    let result = engine
        .run(
            &query
                .clone()
                .algorithm(algorithm)
                .granularity(granularity)
                .collect(CollectMode::Collect),
            graph,
        )
        .expect("valid one-shot query");
    let mut cycles: Vec<StreamCycle> = result
        .cycles
        .expect("collected")
        .iter()
        .map(|c| {
            StreamCycle {
                vertices: c.vertices.clone(),
                edges: c.edges.iter().map(|&id| graph.edge(id)).collect(),
            }
            .canonicalize()
        })
        .collect();
    cycles.sort_by(|a, b| a.edges.cmp(&b.edges));
    cycles
}

// Note on duplicates: a multigraph can hold parallel edges with identical
// `(src, dst, ts)` triples, so two *distinct* cycles (different edge ids)
// may resolve to equal `StreamCycle`s. Comparing sorted vectors therefore
// checks exact multiset equality — each cycle reported exactly once is
// implied by multiplicities matching the one-shot reference.

/// With a retention spanning the whole stream (no expiry), the union of
/// per-batch results equals a one-shot run over the full graph — for every
/// batch size, thread count and one-shot algorithm/granularity.
#[test]
fn delta_union_matches_one_shot_without_expiry() {
    for seed in 0..4 {
        let graph = uniform_temporal(RandomTemporalConfig {
            num_vertices: 16,
            num_edges: 80,
            time_span: 60,
            seed: 3_000 + seed,
        });
        for delta in [15, 40] {
            for (label, streaming_query, query) in [
                (
                    "simple",
                    StreamingQuery::simple(delta),
                    Query::simple().window(delta),
                ),
                (
                    "temporal",
                    StreamingQuery::temporal(delta),
                    Query::temporal().window(delta),
                ),
            ] {
                let reference =
                    one_shot(&graph, &query, Algorithm::Johnson, Granularity::FineGrained);
                // Every one-shot configuration agrees with itself first.
                for (algorithm, granularity) in [
                    (Algorithm::Johnson, Granularity::Sequential),
                    (Algorithm::ReadTarjan, Granularity::Sequential),
                    (Algorithm::ReadTarjan, Granularity::CoarseGrained),
                ] {
                    assert_eq!(
                        one_shot(&graph, &query, algorithm, granularity),
                        reference,
                        "seed {seed} delta {delta} {label} {algorithm:?}/{granularity:?}"
                    );
                }
                for batch_edges in [1, 7, 80] {
                    for threads in [1, 4] {
                        let (union, engine) = replay(
                            &graph,
                            streaming_query.clone(),
                            10_000,
                            batch_edges,
                            threads,
                        );
                        assert_eq!(engine.graph().total_expired(), 0, "no expiry in this sweep");
                        assert_eq!(
                            union, reference,
                            "seed {seed} delta {delta} {label} batch {batch_edges} \
                             threads {threads}"
                        );
                    }
                }
            }
        }
    }
}

/// With a retention shorter than the stream (edges expire mid-stream,
/// including batches that straddle the window edge), the union restricted to
/// cycles that survive in the final window equals a one-shot run over the
/// final snapshot.
#[test]
fn delta_union_matches_one_shot_on_final_window_with_expiry() {
    for seed in 0..4 {
        let graph = power_law_temporal(RandomTemporalConfig {
            num_vertices: 20,
            num_edges: 110,
            time_span: 100,
            seed: 4_000 + seed,
        });
        let delta = 20;
        let retention = 35; // well below the 100-step span: plenty of expiry
        for (label, streaming_query, query) in [
            (
                "simple",
                StreamingQuery::simple(delta),
                Query::simple().window(delta),
            ),
            (
                "temporal",
                StreamingQuery::temporal(delta),
                Query::temporal().window(delta),
            ),
        ] {
            // Batch sizes chosen so that some batches straddle the window:
            // 110 edges over ~100 time steps means a 45-edge batch spans more
            // than the retention of 35.
            for batch_edges in [3, 16, 45] {
                for threads in [1, 4] {
                    let (union, engine) = replay(
                        &graph,
                        streaming_query.clone(),
                        retention,
                        batch_edges,
                        threads,
                    );
                    assert!(
                        engine.graph().total_expired() > 0,
                        "seed {seed}: the sweep must actually exercise expiry"
                    );
                    let window = engine.graph().window().expect("live edges remain");
                    let snapshot = engine.snapshot();
                    let reference = one_shot(
                        &snapshot,
                        &query,
                        Algorithm::Johnson,
                        Granularity::Sequential,
                    );
                    let survivors: Vec<StreamCycle> = union
                        .iter()
                        .filter(|c| c.edges.iter().all(|e| window.contains(e.ts)))
                        .cloned()
                        .collect();
                    assert_eq!(
                        survivors, reference,
                        "seed {seed} {label} batch {batch_edges} threads {threads}"
                    );
                }
            }
        }
    }
}

/// Length-bounded queries stream identically to their one-shot counterparts.
#[test]
fn max_len_constraint_is_preserved_by_streaming() {
    let graph = uniform_temporal(RandomTemporalConfig {
        num_vertices: 14,
        num_edges: 70,
        time_span: 50,
        seed: 99,
    });
    let delta = 30;
    for max_len in [2, 3] {
        let (union, _) = replay(
            &graph,
            StreamingQuery::temporal(delta).max_len(max_len),
            10_000,
            5,
            1,
        );
        let reference = one_shot(
            &graph,
            &Query::temporal().window(delta).max_len(max_len),
            Algorithm::Johnson,
            Granularity::Sequential,
        );
        assert_eq!(union, reference, "max_len {max_len}");
        assert!(union.iter().all(|c| c.len() <= max_len));
    }
}

/// Base seed of the granularity sweep: `PCE_SWEEP_SEED` when set (CI passes a
/// fresh one per run so the sweep keeps exploring cases; the value is in the
/// CI log), a fixed default otherwise.
fn sweep_seed() -> u64 {
    std::env::var("PCE_SWEEP_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(5_000)
}

/// The seeded stream shape shared by the granularity and multi-query sweeps:
/// duplicate timestamps, bursty jumps and shuffled batches over ~100 edges.
/// The generated edge *sequence* depends only on the seed (batch size only
/// changes the chopping and within-batch order), so different batch sizes
/// replay the same stream — exactly what the batching-invariance assertions
/// need.
fn sweep_stream(seed: u64, batch_edges: usize) -> Vec<Vec<TemporalEdge>> {
    random_temporal_stream(
        seed,
        &StreamSpec {
            num_vertices: 18,
            num_edges: 100,
            batch_edges,
            duplicate_ts: 0.15,
            burstiness: 0.1,
            out_of_order: true,
        },
    )
}

/// The differential sweep for the streaming granularities: seeded batches ×
/// granularity {sequential, coarse, fine} × threads {1, 4} × batch sizes
/// (including expiry-straddling ones) must produce **byte-identical** cycle
/// sets — equal to a one-shot enumeration over the final snapshot once
/// restricted to cycles that survive in the final window, and equal to each
/// other batch by batch.
#[test]
fn granularity_sweep_is_byte_identical_to_one_shot() {
    let base = sweep_seed();
    let mut cycles_seen = 0usize;
    for seed in base..base + 2 {
        let delta = 25;
        // One retention without expiry, one that forces it mid-stream.
        for retention in [10_000, 40] {
            for (label, streaming_query, query) in [
                (
                    "simple",
                    StreamingQuery::simple(delta).max_len(5),
                    Query::simple().window(delta).max_len(5),
                ),
                (
                    "temporal",
                    StreamingQuery::temporal(delta),
                    Query::temporal().window(delta),
                ),
            ] {
                // The bursty stream spans well beyond the retention of 40,
                // so large batches straddle window expiry.
                for batch_edges in [1, 9, 45] {
                    let batches = sweep_stream(seed, batch_edges);
                    let mut reference_union: Option<Vec<StreamCycle>> = None;
                    for granularity in [
                        Granularity::Sequential,
                        Granularity::CoarseGrained,
                        Granularity::FineGrained,
                    ] {
                        for threads in [1, 4] {
                            let (union, engine) = replay_stream(
                                &batches,
                                streaming_query.clone().granularity(granularity),
                                retention,
                                threads,
                            );
                            // Every configuration reports the same union …
                            match &reference_union {
                                None => reference_union = Some(union.clone()),
                                Some(expected) => assert_eq!(
                                    &union, expected,
                                    "seed {seed} {label} retention {retention} batch \
                                     {batch_edges} {granularity:?} threads {threads}"
                                ),
                            }
                            // … and the survivors match the one-shot run over
                            // the final snapshot byte for byte.
                            let window = engine.graph().window().expect("live edges remain");
                            let snapshot = engine.snapshot();
                            let one_shot = one_shot(
                                &snapshot,
                                &query,
                                Algorithm::Johnson,
                                Granularity::Sequential,
                            );
                            let survivors: Vec<StreamCycle> = union
                                .iter()
                                .filter(|c| c.edges.iter().all(|e| window.contains(e.ts)))
                                .cloned()
                                .collect();
                            assert_eq!(
                                survivors, one_shot,
                                "seed {seed} {label} retention {retention} batch \
                                 {batch_edges} {granularity:?} threads {threads}"
                            );
                            cycles_seen += union.len();
                        }
                    }
                }
            }
        }
    }
    assert!(cycles_seen > 0, "the sweep must actually exercise cycles");
}

/// The multi-query differential sweep (the tentpole's harness): one
/// [`MultiStreamingEngine`] with K ∈ {2, 4} heterogeneous subscriptions —
/// different kinds, windows, length bounds and self-loop flags — must report,
/// **per query and per batch**, byte-identical canonicalised cycles to K
/// independent [`StreamingEngine`]s replaying the same seeded stream, across
/// granularities {sequential, coarse, fine}, threads {1, 4} and batch sizes
/// including expiry-straddling ones. Base seed from `PCE_SWEEP_SEED` (echoed
/// by CI; every assertion message carries the seed).
#[test]
fn multi_query_sweep_matches_independent_engines() {
    let base = sweep_seed();
    let portfolio = [
        StreamingQuery::temporal(25),
        StreamingQuery::simple(12).max_len(4),
        StreamingQuery::temporal(8).max_len(3),
        StreamingQuery::simple(30).include_self_loops(true),
    ];
    let mut cycles_seen = 0usize;
    for seed in base..base + 2 {
        for k in [2usize, 4] {
            let queries = &portfolio[..k];
            // One retention without expiry, one that forces it mid-stream.
            for retention in [10_000i64, 40] {
                for batch_edges in [1usize, 9, 45] {
                    let batches = sweep_stream(seed, batch_edges);
                    for granularity in [
                        Granularity::Sequential,
                        Granularity::CoarseGrained,
                        Granularity::FineGrained,
                    ] {
                        for threads in [1usize, 4] {
                            let label = format!(
                                "seed {seed} k {k} retention {retention} batch {batch_edges} \
                                 {granularity:?} threads {threads}"
                            );
                            // The shared engine: K subscriptions, one ingest
                            // pass per batch.
                            let mut multi = MultiStreamingEngine::with_threads(retention, threads)
                                .expect("valid retention")
                                .with_granularity(granularity);
                            let ids: Vec<QueryId> = queries
                                .iter()
                                .map(|q| multi.subscribe(q.clone()).expect("valid subscription"))
                                .collect();
                            // The baseline: one dedicated engine per query.
                            let mut dedicated: Vec<StreamingEngine> = queries
                                .iter()
                                .map(|q| {
                                    StreamingEngine::with_threads(
                                        retention,
                                        q.clone().granularity(granularity),
                                        threads,
                                    )
                                    .expect("valid streaming config")
                                })
                                .collect();
                            for (b, batch) in batches.iter().enumerate() {
                                let shared = multi.ingest(batch).expect("in-order replay");
                                for (id, engine) in ids.iter().zip(&mut dedicated) {
                                    let own = engine.ingest(batch).expect("in-order replay");
                                    let fanned = shared.report(*id).expect("subscribed");
                                    assert_eq!(
                                        sort_canonical(&fanned.cycles),
                                        sort_canonical(&own.cycles),
                                        "{label} query {id} batch index {b}"
                                    );
                                    assert_eq!(
                                        fanned.cycles_found, own.cycles_found,
                                        "{label} query {id} batch index {b}"
                                    );
                                    cycles_seen += own.cycles.len();
                                }
                            }
                            // Lifetime totals agree too (stable attribution).
                            for (id, engine) in ids.iter().zip(&dedicated) {
                                assert_eq!(
                                    multi.total_cycles(*id),
                                    Some(engine.total_cycles()),
                                    "{label} query {id}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }
    assert!(cycles_seen > 0, "the sweep must actually exercise cycles");
}

/// The fan-out property sweep (the tentpole's differential harness): a
/// [`MultiStreamingEngine`] dispatching through the constraint-indexed
/// [`SubscriptionIndex`] must report, **per query and per batch**,
/// byte-identical canonicalised cycles to the same engine running the naive
/// per-candidate loop — across seeded portfolios of K ∈ {4, 16, 64}
/// heterogeneous subscriptions ([`large_portfolio`]'s 16-profile pool, in
/// [`CollectMode::Collect`] so the cycles themselves are compared), shared
/// pass granularities {sequential, coarse, fine}, threads {1, 4} and
/// retentions with and without mid-stream expiry. At K = 64 with threads = 4
/// the sweep also exercises the deferred parallel dispatch path. Base seed
/// from `PCE_SWEEP_SEED` (echoed by CI; every assertion message carries the
/// seed).
#[test]
fn fan_out_index_sweep_is_byte_identical_to_naive_loop() {
    let base = sweep_seed();
    let mut cycles_seen = 0usize;
    let mut parallel_batches = 0usize;
    for seed in base..base + 2 {
        for k in [4usize, 16, 64] {
            let portfolio: Vec<StreamingQuery> = large_portfolio(k, 25)
                .into_iter()
                .map(|q| q.collect(CollectMode::Collect))
                .collect();
            // One retention without expiry, one that forces it mid-stream.
            for retention in [10_000i64, 40] {
                let batches = sweep_stream(seed, 9);
                for granularity in [
                    Granularity::Sequential,
                    Granularity::CoarseGrained,
                    Granularity::FineGrained,
                ] {
                    for threads in [1usize, 4] {
                        let label = format!(
                            "seed {seed} k {k} retention {retention} {granularity:?} \
                             threads {threads}"
                        );
                        let mut engines: Vec<MultiStreamingEngine> =
                            [FanOutStrategy::Naive, FanOutStrategy::Indexed]
                                .into_iter()
                                .map(|strategy| {
                                    let mut engine =
                                        MultiStreamingEngine::with_threads(retention, threads)
                                            .expect("valid retention")
                                            .with_granularity(granularity)
                                            .with_fan_out(strategy);
                                    for q in &portfolio {
                                        engine.subscribe(q.clone()).expect("valid subscription");
                                    }
                                    engine
                                })
                                .collect();
                        let ids: Vec<QueryId> =
                            engines[0].subscriptions().map(|(id, _)| id).collect();
                        for (b, batch) in batches.iter().enumerate() {
                            let [naive, indexed] = &mut engines[..] else {
                                unreachable!("two strategies");
                            };
                            let rn = naive.ingest(batch).expect("in-order replay");
                            let ri = indexed.ingest(batch).expect("in-order replay");
                            assert_eq!(rn.candidates, ri.candidates, "{label} batch {b}");
                            assert!(
                                ri.fan_out.checks <= rn.fan_out.checks,
                                "{label} batch {b}: the index can never check more than \
                                 the linear loop"
                            );
                            parallel_batches += usize::from(ri.fan_out.parallel);
                            for id in &ids {
                                let a = rn.report(*id).expect("subscribed");
                                let c = ri.report(*id).expect("subscribed");
                                assert_eq!(
                                    a.cycles_found, c.cycles_found,
                                    "{label} query {id} batch {b}"
                                );
                                assert_eq!(
                                    sort_canonical(&a.cycles),
                                    sort_canonical(&c.cycles),
                                    "{label} query {id} batch {b}"
                                );
                                cycles_seen += a.cycles.len();
                            }
                        }
                        // Lifetime totals agree too (stable attribution).
                        for id in &ids {
                            assert_eq!(
                                engines[0].total_cycles(*id),
                                engines[1].total_cycles(*id),
                                "{label} query {id}"
                            );
                        }
                    }
                }
            }
        }
    }
    assert!(cycles_seen > 0, "the sweep must actually exercise cycles");
    assert!(
        parallel_batches > 0,
        "the K = 64, threads = 4 configurations must exercise the deferred \
         parallel dispatch path"
    );
}

/// Deterministically attributes the sweep stream: amounts and labels are
/// derived from each edge's endpoints and timestamp, so every configuration
/// replays the same attributed stream regardless of batching or threads.
/// Amounts land roughly uniformly in `0..100_000`; labels in `0..8`.
fn attribute_stream(batches: &[Vec<TemporalEdge>]) -> Vec<Vec<TemporalEdge>> {
    batches
        .iter()
        .map(|batch| {
            batch
                .iter()
                .map(|e| {
                    let mix = u64::from(e.src) * 31 + u64::from(e.dst) * 7 + (e.ts as u64) * 13 + 5;
                    TemporalEdge::with_attrs(
                        e.src,
                        e.dst,
                        e.ts,
                        (mix * 997) % 100_000,
                        ((mix >> 3) % 8) as u16,
                    )
                })
                .collect()
        })
        .collect()
}

/// The predicate-bearing portfolio for the fan-out sweep. Every member
/// carries a minimum-amount bound, so the portfolio's predicate *union*
/// (amount floor 40 000) genuinely rejects a large slice of the attributed
/// stream and pushdown has something to prune; the label filters and amount
/// intervals differ per subscription, so fan-out must still apply each exact
/// predicate. All in [`CollectMode::Collect`] so the cycles themselves are
/// compared.
fn predicate_portfolio() -> Vec<StreamingQuery> {
    vec![
        StreamingQuery::temporal(25).predicate(EdgePredicate::pass_all().min_amount(60_000)),
        StreamingQuery::simple(12).max_len(4).predicate(
            EdgePredicate::pass_all()
                .min_amount(45_000)
                .labels(LabelFilter::allow(vec![2, 5])),
        ),
        StreamingQuery::temporal(8).max_len(3).predicate(
            EdgePredicate::pass_all()
                .min_amount(50_000)
                .max_amount(90_000),
        ),
        StreamingQuery::simple(30).predicate(
            EdgePredicate::pass_all()
                .min_amount(40_000)
                .labels(LabelFilter::deny(vec![0])),
        ),
    ]
    .into_iter()
    .map(|q| q.collect(CollectMode::Collect))
    .collect()
}

/// The predicate extension of the fan-out sweep: a portfolio of
/// attribute-filtered subscriptions replayed through every fan-out strategy
/// {Naive, Indexed} × pushdown setting {on, off} must report, **per query and
/// per batch**, byte-identical canonicalised cycles to dedicated single-query
/// engines — across granularities {sequential, coarse, fine}, threads {1, 4}
/// and retentions with and without mid-stream expiry. The pushdown runs must
/// never build larger edge unions than their filter-at-fan-out twins, and
/// across the whole sweep they must build strictly smaller ones. Base seed
/// from `PCE_SWEEP_SEED` (echoed by CI; every assertion message carries the
/// seed).
#[test]
fn predicate_sweep_is_byte_identical_across_strategies_and_pushdown() {
    let base = sweep_seed();
    let portfolio = predicate_portfolio();
    let mut cycles_seen = 0usize;
    let mut push_union_total = 0u64;
    let mut post_union_total = 0u64;
    for seed in base..base + 2 {
        for retention in [10_000i64, 40] {
            let batches = attribute_stream(&sweep_stream(seed, 9));
            for granularity in [
                Granularity::Sequential,
                Granularity::CoarseGrained,
                Granularity::FineGrained,
            ] {
                for threads in [1usize, 4] {
                    let label = format!(
                        "seed {seed} retention {retention} {granularity:?} threads {threads}"
                    );
                    // Four shared engines: every strategy × pushdown setting.
                    let configs = [
                        (FanOutStrategy::Naive, true),
                        (FanOutStrategy::Naive, false),
                        (FanOutStrategy::Indexed, true),
                        (FanOutStrategy::Indexed, false),
                    ];
                    let mut engines: Vec<MultiStreamingEngine> = configs
                        .iter()
                        .map(|&(strategy, pushdown)| {
                            let mut engine = MultiStreamingEngine::with_threads(retention, threads)
                                .expect("valid retention")
                                .with_granularity(granularity)
                                .with_fan_out(strategy)
                                .with_pushdown(pushdown);
                            for q in &portfolio {
                                engine.subscribe(q.clone()).expect("valid subscription");
                            }
                            engine
                        })
                        .collect();
                    let ids: Vec<QueryId> = engines[0].subscriptions().map(|(id, _)| id).collect();
                    // The independent oracle: one dedicated engine per query,
                    // each applying its own predicate through the single-query
                    // pushdown path.
                    let mut dedicated: Vec<StreamingEngine> = portfolio
                        .iter()
                        .map(|q| {
                            StreamingEngine::with_threads(
                                retention,
                                q.clone().granularity(granularity),
                                threads,
                            )
                            .expect("valid streaming config")
                        })
                        .collect();
                    let mut union_members = [0u64; 4];
                    for (b, batch) in batches.iter().enumerate() {
                        let reports: Vec<MultiBatchReport> = engines
                            .iter_mut()
                            .map(|e| e.ingest(batch).expect("in-order replay"))
                            .collect();
                        for (m, report) in union_members.iter_mut().zip(&reports) {
                            *m += report.stats.work.total_union_members();
                        }
                        for (id, engine) in ids.iter().zip(&mut dedicated) {
                            let own = engine.ingest(batch).expect("in-order replay");
                            let own_cycles = sort_canonical(&own.cycles);
                            for (&(strategy, pushdown), report) in configs.iter().zip(&reports) {
                                let fanned = report.report(*id).expect("subscribed");
                                assert_eq!(
                                    fanned.cycles_found, own.cycles_found,
                                    "{label} {strategy:?} pushdown {pushdown} query {id} \
                                     batch {b}"
                                );
                                assert_eq!(
                                    sort_canonical(&fanned.cycles),
                                    own_cycles,
                                    "{label} {strategy:?} pushdown {pushdown} query {id} \
                                     batch {b}"
                                );
                            }
                            cycles_seen += own.cycles.len();
                        }
                    }
                    // Pushdown never builds a larger union than its
                    // filter-at-fan-out twin (same strategy, same stream) …
                    for (push, post) in [(0usize, 1usize), (2, 3)] {
                        assert!(
                            union_members[push] <= union_members[post],
                            "{label}: pushdown built a larger union \
                             ({} vs {})",
                            union_members[push],
                            union_members[post]
                        );
                        push_union_total += union_members[push];
                        post_union_total += union_members[post];
                    }
                    // Lifetime totals agree across all four configurations.
                    for id in &ids {
                        let totals: Vec<_> = engines.iter().map(|e| e.total_cycles(*id)).collect();
                        assert!(
                            totals.windows(2).all(|w| w[0] == w[1]),
                            "{label} query {id}: lifetime totals diverged {totals:?}"
                        );
                    }
                }
            }
        }
    }
    assert!(cycles_seen > 0, "the sweep must actually exercise cycles");
    // … and across the whole sweep the pruning must actually bite.
    assert!(
        push_union_total < post_union_total,
        "pushdown never pruned anything: {push_union_total} vs {post_union_total}"
    );
}

/// One member of the extended-predicate portfolio: the streaming query, its
/// structural one-shot twin (same kind/window/length bound, **no**
/// predicate — the zero-pruning enumeration the brute-force oracle
/// post-filters), and the exact predicate the oracle applies.
struct ExtendedMember {
    name: &'static str,
    streaming: StreamingQuery,
    one_shot: Query,
    predicate: CyclePredicate,
}

/// The heterogeneous extended-predicate portfolio: aggregate intervals,
/// strict monotonicity, position-pinned constraints and vertex deny-sets,
/// mixed with plain edge predicates. Every member shares four hull
/// dimensions — an amount floor, a finite total ceiling, a `FromEnd(0)`
/// floor and the denied vertex 7 — so the portfolio's union hull keeps a
/// constraint in *each* pushdown class and the pushdown runs record
/// aggregate, positional and vertex prunes; the dimensions that differ per
/// member (monotonicity, `FromStart(0)`, the extra denied vertices) loosen
/// out of the hull and are only enforced by the exact fan-out re-check.
fn extended_portfolio() -> Vec<ExtendedMember> {
    let aggregate_interval = CyclePredicate::pass_all()
        .edge(EdgePredicate::pass_all().min_amount(10_000))
        .total_min(40_000)
        .total_max(120_000)
        .at(
            Position::FromEnd(0),
            EdgePredicate::pass_all().min_amount(20_000),
        )
        .vertices(VertexFilter::deny(vec![3, 7]));
    let monotone = CyclePredicate::pass_all()
        .edge(
            EdgePredicate::pass_all()
                .min_amount(5_000)
                .labels(LabelFilter::allow(vec![2, 5])),
        )
        .total_max(110_000)
        .monotone_amounts(true)
        .at(
            Position::FromEnd(0),
            EdgePredicate::pass_all().min_amount(15_000),
        )
        .vertices(VertexFilter::deny(vec![7]));
    let positional = CyclePredicate::pass_all()
        .edge(
            EdgePredicate::pass_all()
                .min_amount(8_000)
                .max_amount(80_000),
        )
        .total_min(30_000)
        .total_max(115_000)
        .at(
            Position::FromEnd(0),
            EdgePredicate::pass_all().min_amount(10_000),
        )
        .at(
            Position::FromStart(0),
            EdgePredicate::pass_all().labels(LabelFilter::deny(vec![0])),
        )
        .vertices(VertexFilter::deny(vec![7, 11]));
    let edge_heavy = CyclePredicate::pass_all()
        .edge(
            EdgePredicate::pass_all()
                .min_amount(6_000)
                .labels(LabelFilter::deny(vec![0])),
        )
        .total_max(120_000)
        .at(
            Position::FromEnd(0),
            EdgePredicate::pass_all().min_amount(12_000),
        )
        .vertices(VertexFilter::deny(vec![2, 7]));
    vec![
        ExtendedMember {
            name: "aggregate-interval",
            streaming: StreamingQuery::temporal(25).cycle_predicate(aggregate_interval.clone()),
            one_shot: Query::temporal().window(25),
            predicate: aggregate_interval,
        },
        ExtendedMember {
            name: "monotone",
            streaming: StreamingQuery::simple(12)
                .max_len(4)
                .cycle_predicate(monotone.clone()),
            one_shot: Query::simple().window(12).max_len(4),
            predicate: monotone,
        },
        ExtendedMember {
            name: "positional",
            streaming: StreamingQuery::temporal(8)
                .max_len(3)
                .cycle_predicate(positional.clone()),
            one_shot: Query::temporal().window(8).max_len(3),
            predicate: positional,
        },
        ExtendedMember {
            name: "edge-heavy",
            streaming: StreamingQuery::simple(30).cycle_predicate(edge_heavy.clone()),
            one_shot: Query::simple().window(30),
            predicate: edge_heavy,
        },
    ]
    .into_iter()
    .map(|m| ExtendedMember {
        streaming: m.streaming.collect(CollectMode::Collect),
        ..m
    })
    .collect()
}

/// The extended-predicate property sweep (the tentpole's differential
/// harness): the heterogeneous portfolio of [`extended_portfolio`] replayed
/// through a [`MultiStreamingEngine`] must report, **per query and per
/// batch**, byte-identical canonicalised cycles to dedicated single-query
/// engines — across granularities {sequential, coarse, fine} × threads
/// {1, 4} × pushdown {on, off} × retentions with and
/// without mid-stream expiry — and, at end of stream, each query's
/// window-surviving union must equal a **zero-pruning brute-force oracle**:
/// a pass-all one-shot enumeration of the final snapshot post-filtered
/// through the exact predicate by [`oracle_with_predicates`]. The
/// deterministic prune counters are asserted three ways: the pushdown run
/// never builds a larger union than its post-filter twin per configuration
/// (strictly smaller summed sweep-wide), the post-filter runs record zero
/// extended prunes (a pass-all hull has nothing to prune against), and the
/// pushdown prune counters depend only on the data — identical across
/// granularity and threads — and each class
/// (aggregate, positional, vertex) fires somewhere in the sweep. Base seed
/// from `PCE_SWEEP_SEED` (echoed by CI; every assertion message carries the
/// seed).
#[test]
fn extended_predicate_sweep_is_byte_identical() {
    let base = sweep_seed();
    let portfolio = extended_portfolio();
    let mut cycles_seen = 0usize;
    let mut push_union_total = 0u64;
    let mut post_union_total = 0u64;
    let mut push_prunes_total = [0u64; 3];
    let mut prune_fingerprints: std::collections::HashMap<(u64, i64), [u64; 3]> =
        std::collections::HashMap::new();
    for seed in base..base + 2 {
        for retention in [10_000i64, 40] {
            let batches = attribute_stream(&sweep_stream(seed, 9));
            for granularity in [
                Granularity::Sequential,
                Granularity::CoarseGrained,
                Granularity::FineGrained,
            ] {
                for threads in [1usize, 4] {
                    let label = format!(
                        "seed {seed} retention {retention} {granularity:?} threads {threads}"
                    );
                    // Two shared engines: pushdown on and off.
                    let mut engines: Vec<MultiStreamingEngine> = [true, false]
                        .into_iter()
                        .map(|pushdown| {
                            let mut engine = MultiStreamingEngine::with_threads(retention, threads)
                                .expect("valid retention")
                                .with_granularity(granularity)
                                .with_pushdown(pushdown);
                            for m in &portfolio {
                                engine
                                    .subscribe(m.streaming.clone())
                                    .expect("valid subscription");
                            }
                            engine
                        })
                        .collect();
                    let ids: Vec<QueryId> = engines[0].subscriptions().map(|(id, _)| id).collect();
                    // The dedicated baseline: one single-query engine per
                    // member, each pruning with its own exact predicate.
                    let mut dedicated: Vec<StreamingEngine> = portfolio
                        .iter()
                        .map(|m| {
                            StreamingEngine::with_threads(
                                retention,
                                m.streaming.clone().granularity(granularity),
                                threads,
                            )
                            .expect("valid streaming config")
                        })
                        .collect();
                    let mut unions: Vec<Vec<StreamCycle>> = vec![Vec::new(); portfolio.len()];
                    let mut union_members = [0u64; 2];
                    let mut prunes = [[0u64; 3]; 2];
                    for (b, batch) in batches.iter().enumerate() {
                        let reports: Vec<MultiBatchReport> = engines
                            .iter_mut()
                            .map(|e| e.ingest(batch).expect("in-order replay"))
                            .collect();
                        for ((members, per_class), report) in union_members
                            .iter_mut()
                            .zip(prunes.iter_mut())
                            .zip(&reports)
                        {
                            *members += report.stats.work.total_union_members();
                            per_class[0] += report.stats.work.total_aggregate_prunes();
                            per_class[1] += report.stats.work.total_positional_prunes();
                            per_class[2] += report.stats.work.total_vertex_prunes();
                        }
                        for ((id, engine), (member, union)) in ids
                            .iter()
                            .zip(&mut dedicated)
                            .zip(portfolio.iter().zip(&mut unions))
                        {
                            let own = engine.ingest(batch).expect("in-order replay");
                            let own_cycles = sort_canonical(&own.cycles);
                            for (pushdown, report) in [true, false].into_iter().zip(&reports) {
                                let fanned = report.report(*id).expect("subscribed");
                                assert_eq!(
                                    fanned.cycles_found, own.cycles_found,
                                    "{label} {} pushdown {pushdown} batch {b}",
                                    member.name
                                );
                                assert_eq!(
                                    sort_canonical(&fanned.cycles),
                                    own_cycles,
                                    "{label} {} pushdown {pushdown} batch {b}",
                                    member.name
                                );
                            }
                            union.extend(own.cycles.iter().map(StreamCycle::canonicalize));
                            cycles_seen += own.cycles.len();
                        }
                    }
                    // The zero-pruning oracle: per member, enumerate the
                    // final snapshot with **no** predicate at all, then
                    // post-filter through the exact predicate. The
                    // window-surviving streamed union must match it byte
                    // for byte.
                    for ((member, union), engine) in portfolio.iter().zip(&unions).zip(&dedicated) {
                        let window = engine.graph().window().expect("live edges remain");
                        let snapshot = engine.snapshot();
                        let run = Engine::with_threads(2)
                            .run(
                                &member
                                    .one_shot
                                    .clone()
                                    .algorithm(Algorithm::Johnson)
                                    .granularity(Granularity::Sequential)
                                    .collect(CollectMode::Collect),
                                &snapshot,
                            )
                            .expect("valid one-shot query");
                        let mut oracle: Vec<StreamCycle> = oracle_with_predicates(
                            &snapshot,
                            run.cycles.expect("collected"),
                            &member.predicate,
                        )
                        .iter()
                        .map(|c| {
                            StreamCycle {
                                vertices: c.vertices.clone(),
                                edges: c.edges.iter().map(|&id| snapshot.edge(id)).collect(),
                            }
                            .canonicalize()
                        })
                        .collect();
                        oracle.sort_by(|a, b| a.edges.cmp(&b.edges));
                        let mut survivors: Vec<StreamCycle> = union
                            .iter()
                            .filter(|c| c.edges.iter().all(|e| window.contains(e.ts)))
                            .cloned()
                            .collect();
                        survivors.sort_by(|a, b| a.edges.cmp(&b.edges));
                        assert_eq!(
                            survivors, oracle,
                            "{label} {}: streamed union diverged from the zero-pruning \
                             oracle",
                            member.name
                        );
                    }
                    // Pushdown never builds a larger union than its
                    // post-filter twin …
                    assert!(
                        union_members[0] <= union_members[1],
                        "{label}: pushdown built a larger union ({} vs {})",
                        union_members[0],
                        union_members[1]
                    );
                    push_union_total += union_members[0];
                    post_union_total += union_members[1];
                    // … the post-filter run (pass-all hull) records no
                    // extended prunes …
                    assert_eq!(
                        prunes[1],
                        [0, 0, 0],
                        "{label}: a pass-all shared pass pruned on extended constraints"
                    );
                    // … and the pushdown prune counters depend only on
                    // the data, not the schedule.
                    for (total, n) in push_prunes_total.iter_mut().zip(prunes[0]) {
                        *total += n;
                    }
                    let fingerprint = prune_fingerprints
                        .entry((seed, retention))
                        .or_insert(prunes[0]);
                    assert_eq!(
                        *fingerprint, prunes[0],
                        "{label}: prune counters changed with the schedule"
                    );
                }
            }
        }
    }
    assert!(cycles_seen > 0, "the sweep must actually exercise cycles");
    assert!(
        push_union_total < post_union_total,
        "pushdown never pruned anything: {push_union_total} vs {post_union_total}"
    );
    let [aggregate, positional, vertex] = push_prunes_total;
    assert!(
        aggregate > 0 && positional > 0 && vertex > 0,
        "every extended pushdown class must fire somewhere in the sweep \
         (aggregate {aggregate}, positional {positional}, vertex {vertex})"
    );
}

/// The regression mirror of `fine_johnson`'s multi-worker assertion, at the
/// streaming level: a batch whose cycles all hang off one hot root must
/// engage more than one worker under fine granularity — with the steal
/// activity recorded in the batch's `RunStats`/`WorkMetrics` — where the
/// coarse driver necessarily pins to a single worker.
#[test]
fn single_hot_root_batch_engages_multiple_workers_under_fine() {
    let graph = hub_burst(2, 13);
    let expected = hub_burst_cycle_count(2, 13);
    let delta = graph.time_span().max(1);
    let edges = graph.edges();
    let (lead_in, burst) = edges.split_at(edges.len() - 1);

    let burst_report = |granularity: Granularity| {
        let mut engine = StreamingEngine::with_threads(
            delta,
            StreamingQuery::temporal(delta).granularity(granularity),
            4,
        )
        .expect("valid streaming config");
        engine.ingest(lead_in).expect("in-order lead-in");
        engine.ingest(burst).expect("in-order burst")
    };

    let fine = burst_report(Granularity::FineGrained);
    assert_eq!(fine.cycles_found, expected);
    assert_eq!(fine.stats.granularity, Some(Granularity::FineGrained));
    assert!(
        fine.stats.work.total_steals() > 0,
        "steals must be recorded in the batch WorkMetrics"
    );
    let busy = fine
        .stats
        .work
        .workers
        .iter()
        .filter(|w| w.recursive_calls > 0)
        .count();
    assert!(busy > 1, "fine granularity must engage several workers");

    // Identical results from the coarse driver, which cannot spread a
    // single-root batch.
    let coarse = burst_report(Granularity::CoarseGrained);
    assert_eq!(coarse.cycles_found, expected);
    assert_eq!(coarse.stats.work.total_steals(), 0);
}

/// The batching itself must not matter: any two batch sizes produce the same
/// union when nothing expires, and every reported cycle is structurally
/// valid.
#[test]
fn union_is_independent_of_batching() {
    let graph = uniform_temporal(RandomTemporalConfig {
        num_vertices: 15,
        num_edges: 75,
        time_span: 55,
        seed: 500,
    });
    let query = StreamingQuery::simple(25);
    let (fine, _) = replay(&graph, query.clone(), 10_000, 1, 1);
    let (coarse, _) = replay(&graph, query, 10_000, 75, 4);
    assert_eq!(fine, coarse);
    for cycle in &fine {
        assert_eq!(cycle.vertices.len(), cycle.edges.len());
        for (i, e) in cycle.edges.iter().enumerate() {
            assert_eq!(e.src, cycle.vertices[i], "edge {i} source");
            assert_eq!(
                e.dst,
                cycle.vertices[(i + 1) % cycle.vertices.len()],
                "edge {i} destination"
            );
        }
    }
}
