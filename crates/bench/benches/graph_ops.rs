//! Criterion micro-benchmarks of the graph substrate: CSR construction,
//! window slicing, SCC decomposition and the per-root cycle-union
//! preprocessing (§7).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pce_graph::generators::{self, RandomTemporalConfig};
use pce_graph::reach::CycleUnionWorkspace;
use pce_graph::scc::tarjan_scc;
use pce_graph::{CyclePredicate, EdgeId, GraphBuilder, TimeWindow};
use pce_workloads::{dataset, DatasetId};

fn workload() -> pce_graph::TemporalGraph {
    generators::power_law_temporal(RandomTemporalConfig {
        num_vertices: 20_000,
        num_edges: 120_000,
        time_span: 1_000_000,
        seed: 7,
    })
}

fn bench_build(c: &mut Criterion) {
    let graph = workload();
    let edges: Vec<_> = graph.edges().to_vec();
    let mut group = c.benchmark_group("graph_build");
    group.sample_size(10);
    group.bench_function("csr_from_120k_edges", |b| {
        b.iter(|| {
            GraphBuilder::from_edges(graph.num_vertices(), edges.clone())
                .build()
                .num_edges()
        })
    });
    group.finish();
}

fn bench_window_slicing(c: &mut Criterion) {
    let graph = workload();
    let mut group = c.benchmark_group("graph_window_slice");
    group.bench_function("all_vertices", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for v in 0..graph.num_vertices() as u32 {
                total += graph
                    .out_edges_in_window(v, TimeWindow::new(200_000, 400_000))
                    .len();
            }
            total
        })
    });
    group.finish();
}

fn bench_scc(c: &mut Criterion) {
    let graph = workload();
    let mut group = c.benchmark_group("graph_scc");
    group.sample_size(10);
    group.bench_function("tarjan_120k_edges", |b| {
        b.iter(|| tarjan_scc(&graph).num_components)
    });
    group.finish();
}

fn bench_cycle_union(c: &mut Criterion) {
    let graph = workload();
    let mut group = c.benchmark_group("cycle_union_preprocessing");
    group.sample_size(10);
    // Every root of one stretch of the stream, for the simple passes: the
    // min-rooted one-shot pass and the max-rooted delta pass.
    let roots = graph.edge_ids_in_window(TimeWindow::new(200_000, 250_000));
    for &delta in &[10_000i64, 50_000] {
        group.bench_with_input(BenchmarkId::new("temporal", delta), &delta, |b, &delta| {
            let mut ws = CycleUnionWorkspace::new(graph.num_vertices());
            b.iter(|| {
                let mut feasible = 0usize;
                // Preprocess the first 2000 root edges.
                for root in 0..2_000u32.min(graph.num_edges() as u32) {
                    if ws.compute_temporal(&graph, root, delta) {
                        feasible += 1;
                    }
                }
                feasible
            })
        });
        group.bench_with_input(BenchmarkId::new("simple", delta), &delta, |b, &delta| {
            let mut ws = CycleUnionWorkspace::new(graph.num_vertices());
            b.iter(|| {
                roots
                    .clone()
                    .filter(|&root| {
                        let window = TimeWindow::from_start(graph.edge(root).ts, delta);
                        ws.compute_simple(&graph, root, window)
                    })
                    .count()
            })
        });
        group.bench_with_input(
            BenchmarkId::new("simple_before", delta),
            &delta,
            |b, &delta| {
                let mut ws = CycleUnionWorkspace::new(graph.num_vertices());
                let all = CyclePredicate::pass_all();
                b.iter(|| {
                    roots
                        .clone()
                        .filter(|&root| {
                            let ts = graph.edge(root).ts;
                            let window = TimeWindow::new(ts - delta, ts);
                            ws.compute_simple_before(&graph, root, window, &all)
                        })
                        .count()
                })
            },
        );
    }
    // Every root of the WT stand-in at the δ of perfbench's `static_oneshot`
    // simple-cycle queries: the union pass behind fine Johnson and
    // Read-Tarjan there.
    let wt = dataset(DatasetId::WT).build().graph;
    group.bench_with_input(BenchmarkId::new("simple", "wt"), &1_600, |b, &delta| {
        let mut ws = CycleUnionWorkspace::new(wt.num_vertices());
        b.iter(|| {
            (0..wt.num_edges() as EdgeId)
                .filter(|&root| {
                    let window = TimeWindow::from_start(wt.edge(root).ts, delta);
                    ws.compute_simple(&wt, root, window)
                })
                .count()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_build,
    bench_window_slicing,
    bench_scc,
    bench_cycle_union
);
criterion_main!(benches);
