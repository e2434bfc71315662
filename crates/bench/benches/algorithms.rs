//! Criterion micro-benchmarks of the enumeration algorithms on small fixed
//! workloads: sequential baselines, coarse-grained and fine-grained parallel
//! versions, for both simple and temporal cycles, plus the one-shot kernels
//! of the repository benchmark's `static_oneshot` queries next to their
//! cycle-union passes alone.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pce_bench::{run_algo, Algo};
use pce_core::{Algorithm, Engine, Granularity, Query};
use pce_graph::generators::{self, RandomTemporalConfig};
use pce_graph::reach::CycleUnionWorkspace;
use pce_graph::{EdgeId, TemporalGraph, TimeWindow, Timestamp};
use pce_workloads::{dataset, DatasetId};

fn bench_simple_algorithms(c: &mut Criterion) {
    let graph = generators::power_law_temporal(RandomTemporalConfig {
        num_vertices: 800,
        num_edges: 4_500,
        time_span: 100_000,
        seed: 42,
    });
    let delta = 700;
    let engine = Engine::with_threads(4);
    let mut group = c.benchmark_group("simple_cycles");
    group.sample_size(10);
    for algo in [
        Algo::SeqJohnson,
        Algo::SeqReadTarjan,
        Algo::CoarseJohnson,
        Algo::CoarseReadTarjan,
        Algo::FineJohnson,
        Algo::FineReadTarjan,
    ] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{algo:?}")),
            &algo,
            |b, &algo| b.iter(|| run_algo(algo, &graph, delta, &engine)),
        );
    }
    group.finish();
}

fn bench_temporal_algorithms(c: &mut Criterion) {
    let graph = generators::power_law_temporal(RandomTemporalConfig {
        num_vertices: 800,
        num_edges: 4_500,
        time_span: 100_000,
        seed: 43,
    });
    let delta = 3_500;
    let engine = Engine::with_threads(4);
    let mut group = c.benchmark_group("temporal_cycles");
    group.sample_size(10);
    for algo in [
        Algo::SeqTemporal,
        Algo::TwoScent,
        Algo::CoarseTemporal,
        Algo::FineTemporalJohnson,
        Algo::FineTemporalReadTarjan,
    ] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{algo:?}")),
            &algo,
            |b, &algo| b.iter(|| run_algo(algo, &graph, delta, &engine)),
        );
    }
    group.finish();
}

fn bench_fig4a_adversarial(c: &mut Criterion) {
    // Table 1's scalability scenario: all cycles behind one root edge.
    let graph = generators::fig4a_exponential_cycles(14);
    let engine = Engine::with_threads(4);
    let mut group = c.benchmark_group("fig4a_single_root");
    group.sample_size(10);
    for algo in [Algo::CoarseJohnson, Algo::FineJohnson, Algo::FineReadTarjan] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{algo:?}")),
            &algo,
            |b, &algo| b.iter(|| run_algo(algo, &graph, i64::MAX / 4, &engine)),
        );
    }
    group.finish();
}

/// Read-Tarjan on WT at δ = 1,600 and temporal cycles on CO at δ = 1,250
/// (the `static_oneshot` queries, without the benchmark's relabelling), at
/// sequential and fine granularity on 2 threads, each next to its union
/// pass over every root alone: a query's time minus its pass's is the
/// search kernel's.
fn bench_oneshot_kernels(c: &mut Criterion) {
    const WT_DELTA: Timestamp = 1_600;
    const CO_DELTA: Timestamp = 1_250;
    let wt = dataset(DatasetId::WT).build().graph;
    let co = dataset(DatasetId::CO).build().graph;
    let engine = Engine::with_threads(2);
    let read_tarjan = Query::simple()
        .algorithm(Algorithm::ReadTarjan)
        .window(WT_DELTA);
    let temporal = Query::temporal().window(CO_DELTA);
    let mut group = c.benchmark_group("oneshot_kernels");
    group.sample_size(10);
    for (name, query, graph) in [
        ("read_tarjan_wt", &read_tarjan, &wt),
        ("temporal_co", &temporal, &co),
    ] {
        for granularity in [Granularity::Sequential, Granularity::FineGrained] {
            let query = query.clone().granularity(granularity);
            group.bench_function(format!("{name}/{granularity:?}"), |b| {
                b.iter(|| engine.count(&query, graph).expect("valid query"))
            });
        }
    }
    let union_pass = |graph: &TemporalGraph, pass: &dyn Fn(&mut CycleUnionWorkspace, EdgeId)| {
        let mut ws = CycleUnionWorkspace::new(graph.num_vertices());
        for root in 0..graph.num_edges() as EdgeId {
            pass(&mut ws, root);
        }
        ws.union_size()
    };
    group.bench_function("read_tarjan_wt/union_pass_only", |b| {
        b.iter(|| {
            union_pass(&wt, &|ws, root| {
                let window = TimeWindow::from_start(wt.edge(root).ts, WT_DELTA);
                ws.compute_simple(&wt, root, window);
            })
        })
    });
    group.bench_function("temporal_co/union_pass_only", |b| {
        b.iter(|| {
            union_pass(&co, &|ws, root| {
                ws.compute_temporal(&co, root, CO_DELTA);
            })
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_simple_algorithms,
    bench_temporal_algorithms,
    bench_fig4a_adversarial,
    bench_oneshot_kernels
);
criterion_main!(benches);
