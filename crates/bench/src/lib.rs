//! # pce-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! paper's evaluation (§8) on the synthetic dataset suite of
//! [`pce_workloads`]. Each figure has a dedicated binary (see `src/bin/`);
//! the Criterion micro-benchmarks live under `benches/`.
//!
//! This library contains the shared measurement helpers: running one
//! algorithm on one workload, collecting wall-clock time, per-thread busy
//! time and edge-visit counts into [`pce_workloads::MeasuredRow`]s.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use pce_core::seq::temporal::two_scent_baseline;
use pce_core::{
    Algorithm, CountingSink, Engine, Granularity, Query, RunStats, TemporalCycleOptions,
};
use pce_graph::TemporalGraph;
use pce_workloads::DatasetSpec;

/// Every algorithm configuration the harness can measure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// Sequential Johnson.
    SeqJohnson,
    /// Sequential Read-Tarjan.
    SeqReadTarjan,
    /// Sequential temporal enumeration (scalable preprocessing).
    SeqTemporal,
    /// 2SCENT-style serial baseline (temporal).
    TwoScent,
    /// Coarse-grained parallel Johnson.
    CoarseJohnson,
    /// Coarse-grained parallel Read-Tarjan.
    CoarseReadTarjan,
    /// Coarse-grained parallel temporal enumeration.
    CoarseTemporal,
    /// Fine-grained parallel Johnson (copy-on-split).
    FineJohnson,
    /// Fine-grained parallel Read-Tarjan.
    FineReadTarjan,
    /// Fine-grained parallel temporal, Johnson-style tasks.
    FineTemporalJohnson,
    /// Fine-grained parallel temporal, Read-Tarjan-style tasks.
    FineTemporalReadTarjan,
}

impl Algo {
    /// Short label used as a column name.
    pub fn label(&self) -> &'static str {
        match self {
            Algo::SeqJohnson => "seq_johnson",
            Algo::SeqReadTarjan => "seq_read_tarjan",
            Algo::SeqTemporal => "seq_temporal",
            Algo::TwoScent => "2scent",
            Algo::CoarseJohnson => "coarse_johnson",
            Algo::CoarseReadTarjan => "coarse_rt",
            Algo::CoarseTemporal => "coarse_temporal",
            Algo::FineJohnson => "fine_johnson",
            Algo::FineReadTarjan => "fine_rt",
            Algo::FineTemporalJohnson => "fine_johnson",
            Algo::FineTemporalReadTarjan => "fine_rt",
        }
    }

    /// Does this configuration enumerate temporal (rather than simple)
    /// cycles?
    pub fn is_temporal(&self) -> bool {
        matches!(
            self,
            Algo::SeqTemporal
                | Algo::TwoScent
                | Algo::CoarseTemporal
                | Algo::FineTemporalJohnson
                | Algo::FineTemporalReadTarjan
        )
    }
}

impl Algo {
    /// The [`Query`] this configuration corresponds to, with `delta` as the
    /// time window. `TwoScent` has no query form (it is a deliberately serial
    /// driver, not a granularity) and returns `None`.
    pub fn query(&self, delta: i64) -> Option<Query> {
        let query = match self {
            Algo::SeqJohnson => Query::simple()
                .algorithm(Algorithm::Johnson)
                .granularity(Granularity::Sequential),
            Algo::SeqReadTarjan => Query::simple()
                .algorithm(Algorithm::ReadTarjan)
                .granularity(Granularity::Sequential),
            Algo::SeqTemporal => Query::temporal().granularity(Granularity::Sequential),
            Algo::TwoScent => return None,
            Algo::CoarseJohnson => Query::simple()
                .algorithm(Algorithm::Johnson)
                .granularity(Granularity::CoarseGrained),
            Algo::CoarseReadTarjan => Query::simple()
                .algorithm(Algorithm::ReadTarjan)
                .granularity(Granularity::CoarseGrained),
            Algo::CoarseTemporal => Query::temporal().granularity(Granularity::CoarseGrained),
            Algo::FineJohnson => Query::simple()
                .algorithm(Algorithm::Johnson)
                .granularity(Granularity::FineGrained),
            Algo::FineReadTarjan => Query::simple()
                .algorithm(Algorithm::ReadTarjan)
                .granularity(Granularity::FineGrained),
            Algo::FineTemporalJohnson => Query::temporal()
                .algorithm(Algorithm::Johnson)
                .granularity(Granularity::FineGrained),
            Algo::FineTemporalReadTarjan => Query::temporal()
                .algorithm(Algorithm::ReadTarjan)
                .granularity(Granularity::FineGrained),
        };
        Some(query.window(delta))
    }
}

/// Runs one algorithm configuration on one graph and returns its statistics.
/// `delta` is interpreted as the simple-cycle window for simple configurations
/// and as the temporal window for temporal configurations. Every query runs
/// on `engine`'s shared pool — the figure binaries construct one engine per
/// process (or per thread-count scale point) instead of a pool per call.
pub fn run_algo(algo: Algo, graph: &TemporalGraph, delta: i64, engine: &Engine) -> RunStats {
    let sink = CountingSink::new();
    match algo.query(delta) {
        Some(query) => engine
            .run_with_sink(&query, graph, &sink)
            .expect("benchmark queries are valid"),
        // The 2SCENT-style baseline bypasses the engine by design: it stands
        // in for the serial competitor implementation.
        None => two_scent_baseline(graph, &TemporalCycleOptions::with_window(delta), &sink),
    }
}

/// Builds a workload graph, applying the experiment's scale factor to its
/// edge count (used for quick smoke runs of the figure binaries).
pub fn build_scaled(spec: &DatasetSpec, scale: f64) -> pce_workloads::WorkloadGraph {
    if (scale - 1.0).abs() < f64::EPSILON {
        spec.build()
    } else {
        let mut scaled = *spec;
        scaled.num_edges = ((spec.num_edges as f64 * scale).round() as usize).max(100);
        scaled.num_vertices = ((spec.num_vertices as f64 * scale.sqrt()).round() as usize).max(16);
        scaled.build()
    }
}

/// Resolves a thread-count request (0 = available parallelism).
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        pce_sched::available_parallelism()
    } else {
        requested
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pce_workloads::{dataset, DatasetId};

    #[test]
    fn labels_are_unique_per_problem_family() {
        let simple = [
            Algo::SeqJohnson,
            Algo::SeqReadTarjan,
            Algo::CoarseJohnson,
            Algo::CoarseReadTarjan,
            Algo::FineJohnson,
            Algo::FineReadTarjan,
        ];
        let labels: std::collections::HashSet<_> = simple.iter().map(|a| a.label()).collect();
        assert_eq!(labels.len(), simple.len());
        assert!(Algo::FineTemporalJohnson.is_temporal());
        assert!(!Algo::FineJohnson.is_temporal());
    }

    #[test]
    fn run_algo_smoke_test_on_tiny_workload() {
        let spec = dataset(DatasetId::CO);
        let workload = build_scaled(&spec, 0.05);
        let engine = Engine::with_threads(2);
        let a = run_algo(
            Algo::SeqTemporal,
            &workload.graph,
            spec.delta_temporal,
            &engine,
        );
        let b = run_algo(
            Algo::FineTemporalJohnson,
            &workload.graph,
            spec.delta_temporal,
            &engine,
        );
        assert_eq!(a.cycles, b.cycles);
        let baseline = run_algo(
            Algo::TwoScent,
            &workload.graph,
            spec.delta_temporal,
            &engine,
        );
        assert_eq!(a.cycles, baseline.cycles);
    }

    #[test]
    fn every_engine_backed_algo_has_a_valid_query() {
        for algo in [
            Algo::SeqJohnson,
            Algo::SeqReadTarjan,
            Algo::SeqTemporal,
            Algo::CoarseJohnson,
            Algo::CoarseReadTarjan,
            Algo::CoarseTemporal,
            Algo::FineJohnson,
            Algo::FineReadTarjan,
            Algo::FineTemporalJohnson,
            Algo::FineTemporalReadTarjan,
        ] {
            let query = algo.query(50).expect("engine-backed");
            assert!(query.validate().is_ok(), "{algo:?}");
        }
        assert!(Algo::TwoScent.query(50).is_none());
    }

    #[test]
    fn resolve_threads_defaults_to_available() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }
}
