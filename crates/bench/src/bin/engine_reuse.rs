//! Engine-reuse microbenchmark: per-call overhead of one reused [`Engine`]
//! versus a fresh `Engine` per call on a stream of small queries.
//!
//! A serving deployment answers many small queries against warm graphs; what
//! matters there is the fixed cost per call. A fresh engine spawns and tears
//! down a full `ThreadPool` (one OS thread per worker) on every parallel
//! call, which dwarfs the actual enumeration on small graphs. A reused
//! engine pays the pool cost once.
//!
//! Usage: `engine_reuse [--threads N] [--json PATH]`

use pce_bench::resolve_threads;
use pce_core::{Engine, Granularity, Query};
use pce_graph::generators::{self, RandomTemporalConfig};
use pce_workloads::{ExperimentConfig, MeasuredRow, ResultTable};
use std::time::Instant;

const CALLS: usize = 200;

fn main() {
    let cfg = ExperimentConfig::from_args(std::env::args().skip(1));
    let threads = resolve_threads(cfg.threads);
    let graph = generators::uniform_temporal(RandomTemporalConfig {
        num_vertices: 40,
        num_edges: 160,
        time_span: 60,
        seed: 7,
    });
    let query = Query::simple()
        .granularity(Granularity::FineGrained)
        .window(20);

    // Warm both paths once (page-in, lazy pool) before timing.
    let engine = Engine::with_threads(threads);
    let expected = engine.count(&query, &graph).expect("valid query");
    let fresh_count = || {
        Engine::with_threads(threads)
            .count(&query, &graph)
            .expect("valid query")
    };
    assert_eq!(fresh_count(), expected);

    // Reused engine: one pool across all calls.
    let start = Instant::now();
    for _ in 0..CALLS {
        let count = engine.count(&query, &graph).expect("valid query");
        assert_eq!(count, expected);
    }
    let engine_secs = start.elapsed().as_secs_f64();

    // Fresh engine per call: a new pool inside every call.
    let start = Instant::now();
    for _ in 0..CALLS {
        assert_eq!(fresh_count(), expected);
    }
    let fresh_secs = start.elapsed().as_secs_f64();

    let mut table = ResultTable::new(format!(
        "Engine reuse — {CALLS} small-graph queries ({threads} threads, {expected} cycles each)"
    ));
    let mut row = MeasuredRow::new("reused_engine");
    row.push("total_s", engine_secs);
    row.push("per_call_us", engine_secs / CALLS as f64 * 1e6);
    table.push(row);
    let mut row = MeasuredRow::new("pool_per_call");
    row.push("total_s", fresh_secs);
    row.push("per_call_us", fresh_secs / CALLS as f64 * 1e6);
    table.push(row);
    print!("{}", table.render());
    println!(
        "\npool-per-call / reused-engine overhead ratio: {:.2}x",
        fresh_secs / engine_secs.max(1e-12)
    );
    table.maybe_write_json(&cfg.json_out).expect("write json");
}
