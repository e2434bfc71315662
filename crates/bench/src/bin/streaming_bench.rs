//! Streaming ingest benchmark: sustained edges/sec and per-batch enumeration
//! latency of the incremental sliding-window subsystem at 1–8 threads, across
//! delta-enumeration granularities, plus the adversarial **hub-burst**
//! scenario where a single closing edge completes every cycle of a batch.
//!
//! Replays the synthetic transaction stream of
//! [`pce_workloads::streaming`] through a `StreamingEngine` and reports, per
//! (granularity, thread count): sustained ingest throughput (edges/second,
//! end to end), mean / p50 / p95 / max per-batch latency, and the cycle total
//! (which must be identical across every configuration — checked). The
//! hub-burst section then shows the coarse driver pinning a skewed burst to
//! one worker while the fine-grained driver spreads it via steals.
//!
//! The **multi_query** section measures the shared-ingest win of
//! [`pce_core::MultiStreamingEngine`]: one engine serving 1/2/4/8 mixed-portfolio
//! subscriptions versus one dedicated engine per query, asserting per-query
//! cycle totals match exactly and that the shared cost grows sublinearly
//! (4 subscriptions must cost well under 4× a single-query engine).
//!
//! The **predicate** section measures predicate pushdown: attribute-filtered
//! portfolios over the AML layering-chain, labelled-intrusion and
//! monotone-layering streams, replayed with the portfolio's predicate union
//! pushed into the shared pass and again with all attribute filtering at
//! fan-out. It asserts — on deterministic counters — that both runs report
//! byte-identical per-query results while pushdown strictly shrinks
//! union-member, constraint-check and candidate counts; on the
//! monotone-layering rows (whose decoy rings defeat any per-edge predicate)
//! it further requires the aggregate and positional prune counters to be
//! positive under pushdown and zero under the pass-all baseline.
//!
//! The **durability** section measures what crash-safety costs: the same
//! portfolio replayed through a plain in-memory engine and through the
//! logged `pce_store::DurableMultiStreamingEngine` on both store backends
//! (in-memory and filesystem), plus the wall-clock of a full
//! `pce_store::recover` restart over the store the run left behind. The
//! scenario itself asserts the durable and recovered engines report exactly
//! what the plain engine reports.
//!
//! The **fan_out** section measures the subscription-scale dispatch layer: a
//! 64/256/1024-subscription portfolio drawn from a fixed 16-profile pool,
//! served once with the naive per-candidate loop and once with the
//! constraint-indexed `SubscriptionIndex`. It asserts (deterministically, on
//! constraint-check counts rather than wall time) that indexed dispatch is
//! strictly cheaper than the naive loop on the same portfolio, and that its
//! per-batch cost does not grow with the subscriber count while the naive
//! loop's grows linearly.
//!
//! ```text
//! cargo run --release -p pce-bench --bin streaming_bench                      # full run
//! cargo run --release -p pce-bench --bin streaming_bench -- --smoke          # CI smoke
//! cargo run --release -p pce-bench --bin streaming_bench -- --smoke \
//!     --granularity fine                                                     # one granularity
//! cargo run --release -p pce-bench --bin streaming_bench -- multi_query \
//!     --smoke                                                                # one section
//! cargo run --release -p pce-bench --bin streaming_bench -- fan_out \
//!     --smoke --json BENCH_streaming.json                                    # machine-readable
//! ```
//!
//! With `--json <path>`, every section that ran also appends its rows to a
//! machine-readable JSON document (`{"smoke": …, "sections": {…}}`), so the
//! perf trajectory can be tracked across PRs without scraping stdout.

use pce_core::{FanOutStrategy, Granularity};
use pce_workloads::durability::{run_durability, DurabilityConfig, StoreBackend};
use pce_workloads::predicate::{run_predicate_comparison, PredicateScenarioConfig};
use pce_workloads::streaming::{
    run_fan_out_scale, run_hub_burst, run_independent_portfolio, run_multi_tenant,
    run_stream_scenario, FanOutScaleConfig, HubBurstConfig, MultiTenantConfig,
    StreamScenarioConfig,
};

fn granularity_name(g: Granularity) -> &'static str {
    match g {
        Granularity::Sequential => "seq",
        Granularity::CoarseGrained => "coarse",
        Granularity::FineGrained => "fine",
    }
}

/// One JSON scalar of the `--json` report (hand-rolled: the build is fully
/// offline and the in-workspace `serde` stand-in is a no-op).
enum JsonValue {
    U64(u64),
    F64(f64),
    Str(&'static str),
    Bool(bool),
}

impl JsonValue {
    fn render(&self) -> String {
        match self {
            JsonValue::U64(v) => v.to_string(),
            JsonValue::F64(v) if v.is_finite() => format!("{v}"),
            JsonValue::F64(_) => "null".to_string(),
            JsonValue::Str(s) => format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\"")),
            JsonValue::Bool(b) => b.to_string(),
        }
    }
}

impl From<u64> for JsonValue {
    fn from(v: u64) -> Self {
        JsonValue::U64(v)
    }
}
impl From<usize> for JsonValue {
    fn from(v: usize) -> Self {
        JsonValue::U64(v as u64)
    }
}
impl From<f64> for JsonValue {
    fn from(v: f64) -> Self {
        JsonValue::F64(v)
    }
}
impl From<&'static str> for JsonValue {
    fn from(v: &'static str) -> Self {
        JsonValue::Str(v)
    }
}
impl From<bool> for JsonValue {
    fn from(v: bool) -> Self {
        JsonValue::Bool(v)
    }
}

/// Collects per-section result rows for the `--json` report.
#[derive(Default)]
struct JsonLog {
    rows: Vec<(&'static str, Vec<(&'static str, JsonValue)>)>,
}

impl JsonLog {
    fn push(&mut self, section: &'static str, fields: Vec<(&'static str, JsonValue)>) {
        self.rows.push((section, fields));
    }

    /// Renders `{"smoke": …, "sections": {"<name>": [{…}, …], …}}` with
    /// sections in first-appearance order.
    fn render(&self, smoke: bool) -> String {
        let mut sections: Vec<&'static str> = Vec::new();
        for (section, _) in &self.rows {
            if !sections.contains(section) {
                sections.push(section);
            }
        }
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"smoke\": {smoke},\n"));
        out.push_str("  \"sections\": {\n");
        for (si, section) in sections.iter().enumerate() {
            out.push_str(&format!("    \"{section}\": [\n"));
            let rows: Vec<_> = self.rows.iter().filter(|(s, _)| s == section).collect();
            for (ri, (_, fields)) in rows.iter().enumerate() {
                let body: Vec<String> = fields
                    .iter()
                    .map(|(k, v)| format!("\"{k}\": {}", v.render()))
                    .collect();
                let comma = if ri + 1 < rows.len() { "," } else { "" };
                out.push_str(&format!("      {{{}}}{comma}\n", body.join(", ")));
            }
            let comma = if si + 1 < sections.len() { "," } else { "" };
            out.push_str(&format!("    ]{comma}\n"));
        }
        out.push_str("  }\n}\n");
        out
    }
}

/// The streaming throughput/latency section (granularity × thread count).
fn streaming_section(
    smoke: bool,
    granularities: &[Granularity],
    thread_counts: &[usize],
    log: &mut JsonLog,
) {
    let cfg = if smoke {
        StreamScenarioConfig::smoke()
    } else {
        StreamScenarioConfig::default()
    };
    println!(
        "streaming fraud-detection bench ({}): {} accounts, ~{} transactions, \
         batch {} edges, retention {}, delta {}",
        if smoke { "smoke" } else { "full" },
        cfg.ring.num_accounts,
        cfg.ring.background_edges + cfg.ring.num_rings * cfg.ring.ring_len.1,
        cfg.batch_edges,
        cfg.retention,
        cfg.window_delta,
    );
    println!(
        "{:>7} {:>8} {:>12} {:>10} {:>10} {:>10} {:>10} {:>10} {:>9}",
        "threads",
        "gran",
        "edges/sec",
        "batches",
        "mean ms",
        "p50 ms",
        "p95 ms",
        "max ms",
        "cycles"
    );

    let mut reference_cycles: Option<u64> = None;
    for &granularity in granularities {
        for &threads in thread_counts {
            let cfg = cfg.clone().with_granularity(granularity);
            let report = run_stream_scenario(&cfg, threads).expect("valid scenario config");
            println!(
                "{:>7} {:>8} {:>12.0} {:>10} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>9}",
                report.threads,
                granularity_name(granularity),
                report.sustained_edges_per_sec(),
                report.rows.len(),
                report.mean_latency_secs() * 1e3,
                report.latency_percentile_secs(0.50) * 1e3,
                report.latency_percentile_secs(0.95) * 1e3,
                report.max_latency_secs() * 1e3,
                report.total_cycles,
            );
            log.push(
                "streaming",
                vec![
                    ("threads", threads.into()),
                    ("granularity", granularity_name(granularity).into()),
                    ("edges_per_sec", report.sustained_edges_per_sec().into()),
                    ("batches", report.rows.len().into()),
                    ("mean_ms", (report.mean_latency_secs() * 1e3).into()),
                    (
                        "p50_ms",
                        (report.latency_percentile_secs(0.50) * 1e3).into(),
                    ),
                    (
                        "p95_ms",
                        (report.latency_percentile_secs(0.95) * 1e3).into(),
                    ),
                    ("max_ms", (report.max_latency_secs() * 1e3).into()),
                    ("cycles", report.total_cycles.into()),
                ],
            );
            // Results must depend on neither the thread count nor the
            // granularity.
            match reference_cycles {
                None => reference_cycles = Some(report.total_cycles),
                Some(expected) => assert_eq!(
                    report.total_cycles, expected,
                    "cycle totals diverged across configurations"
                ),
            }
        }
    }
    if let Some(cycles) = reference_cycles {
        println!("ok: {cycles} cycles at every granularity and thread count");
    }
}

/// The skewed case: one closing edge completes every cycle of the batch.
fn hub_burst_section(
    smoke: bool,
    granularities: &[Granularity],
    hub_threads: usize,
    log: &mut JsonLog,
) {
    let hub = if smoke {
        HubBurstConfig::smoke()
    } else {
        HubBurstConfig::default()
    };
    println!(
        "\nhub burst (width {}, depth {}: {} cycles through one closing edge, {} threads)",
        hub.width,
        hub.depth,
        hub.expected_cycles(),
        hub_threads,
    );
    println!(
        "{:>8} {:>10} {:>12} {:>8} {:>12}",
        "gran", "burst ms", "busy wrk", "steals", "cycles"
    );
    let mut hub_cycles: Option<u64> = None;
    for &granularity in granularities {
        let report = run_hub_burst(&hub, hub_threads, granularity).expect("valid hub-burst config");
        println!(
            "{:>8} {:>10.3} {:>12} {:>8} {:>12}",
            granularity_name(granularity),
            report.burst_secs * 1e3,
            report.busy_workers(),
            report.burst_stats.work.total_steals(),
            report.cycles,
        );
        log.push(
            "hub_burst",
            vec![
                ("threads", hub_threads.into()),
                ("granularity", granularity_name(granularity).into()),
                ("burst_ms", (report.burst_secs * 1e3).into()),
                ("busy_workers", report.busy_workers().into()),
                ("steals", report.burst_stats.work.total_steals().into()),
                ("cycles", report.cycles.into()),
            ],
        );
        if granularity == Granularity::FineGrained
            && hub_threads > 1
            && pce_sched::available_parallelism() >= 2
        {
            assert!(
                report.busy_workers() > 1 && report.burst_stats.work.total_steals() > 0,
                "fine-grained delta must spread a single-root burst across workers"
            );
        }
        match hub_cycles {
            None => hub_cycles = Some(report.cycles),
            Some(expected) => assert_eq!(report.cycles, expected, "hub-burst totals diverged"),
        }
    }
    println!("ok: hub burst agrees across granularities");
}

/// The multi-query subscription section: shared engine vs one engine per
/// query, over the mixed portfolio, at 1/2/4/8 subscriptions.
fn multi_query_section(
    smoke: bool,
    granularity: Granularity,
    thread_counts: &[usize],
    log: &mut JsonLog,
) {
    let base = if smoke {
        MultiTenantConfig::smoke()
    } else {
        MultiTenantConfig::default()
    };
    let base = MultiTenantConfig {
        granularity,
        ..base
    };
    println!(
        "\nmulti-query subscriptions ({}, {} granularity): shared MultiStreamingEngine \
         vs one StreamingEngine per query",
        if smoke { "smoke" } else { "full" },
        granularity_name(granularity),
    );
    println!(
        "{:>7} {:>6} {:>12} {:>12} {:>8} {:>12} {:>10}",
        "threads", "subs", "shared ms", "indep ms", "ratio", "edges/sec", "cycles"
    );
    // Smoke runs finish in well under a millisecond, where a single
    // scheduler blip would dominate a one-shot measurement and flip the
    // CI-gating assertion below; take the best of a few runs so the timing
    // comparison reflects the work, not the noise.
    let repeats = if smoke { 5 } else { 1 };
    for &threads in thread_counts {
        // The cost of a dedicated single-query engine: the yardstick the
        // 4-subscription shared run is held against.
        let mut single_query_secs: Option<f64> = None;
        for subs in [1usize, 2, 4, 8] {
            let cfg = base.clone().with_subscriptions(subs);
            let mut shared = run_multi_tenant(&cfg, threads).expect("valid multi-tenant config");
            let (mut indep_secs, indep_cycles) =
                run_independent_portfolio(&cfg, threads).expect("valid baseline config");
            for _ in 1..repeats {
                let again = run_multi_tenant(&cfg, threads).expect("valid multi-tenant config");
                if again.wall_secs < shared.wall_secs {
                    shared = again;
                }
                let (secs, _) =
                    run_independent_portfolio(&cfg, threads).expect("valid baseline config");
                indep_secs = indep_secs.min(secs);
            }
            // Correctness first: every subscription must report exactly what
            // its dedicated engine reports.
            for (tenant, expected) in shared.tenants.iter().zip(&indep_cycles) {
                assert_eq!(
                    tenant.cycles, *expected,
                    "query {} diverged from its dedicated engine",
                    tenant.query
                );
            }
            if subs == 1 {
                single_query_secs = Some(indep_secs);
            }
            println!(
                "{:>7} {:>6} {:>12.3} {:>12.3} {:>8.2} {:>12.0} {:>10}",
                threads,
                subs,
                shared.wall_secs * 1e3,
                indep_secs * 1e3,
                indep_secs / shared.wall_secs.max(1e-9),
                shared.sustained_edges_per_sec(),
                shared.total_cycles(),
            );
            log.push(
                "multi_query",
                vec![
                    ("threads", threads.into()),
                    ("granularity", granularity_name(granularity).into()),
                    ("subs", subs.into()),
                    ("shared_ms", (shared.wall_secs * 1e3).into()),
                    ("independent_ms", (indep_secs * 1e3).into()),
                    ("edges_per_sec", shared.sustained_edges_per_sec().into()),
                    ("cycles", shared.total_cycles().into()),
                ],
            );
            if subs == 4 {
                let single = single_query_secs.expect("subs=1 ran first");
                assert!(
                    shared.wall_secs < 4.0 * single.max(1e-6),
                    "shared ingest at 4 subscriptions ({:.3} ms) must cost < 4x a \
                     single-query engine ({:.3} ms)",
                    shared.wall_secs * 1e3,
                    single * 1e3,
                );
            }
        }
    }
    println!("ok: per-query totals match dedicated engines; shared ingest scales sublinearly");
}

/// The subscription-scale fan-out section: the constraint-indexed dispatcher
/// vs the naive per-candidate loop at 64/256/1024 subscriptions drawn from a
/// fixed 16-profile pool. Assertions are on deterministic constraint-check
/// counts, so the CI gate cannot flake on timing noise.
fn fan_out_section(smoke: bool, threads: usize, log: &mut JsonLog) {
    let base = if smoke {
        FanOutScaleConfig::smoke()
    } else {
        FanOutScaleConfig::default()
    };
    println!(
        "\nfan-out scaling ({}, {} threads): constraint-indexed SubscriptionIndex vs \
         naive per-candidate loop, 16-profile portfolio",
        if smoke { "smoke" } else { "full" },
        threads,
    );
    println!(
        "{:>6} {:>7} {:>10} {:>10} {:>14} {:>12} {:>7} {:>9} {:>10}",
        "subs",
        "groups",
        "naive ms",
        "idx ms",
        "naive checks",
        "idx checks",
        "ratio",
        "par.bat",
        "cycles"
    );
    let mut checks_at: Vec<(usize, u64, u64)> = Vec::new(); // (subs, naive, indexed)
    for subs in [64usize, 256, 1024] {
        let cfg = base.clone().with_subscriptions(subs);
        let naive =
            run_fan_out_scale(&cfg, threads, FanOutStrategy::Naive).expect("valid fan-out config");
        let indexed = run_fan_out_scale(&cfg, threads, FanOutStrategy::Indexed)
            .expect("valid fan-out config");
        // Correctness first: both strategies must attribute identical
        // lifetime totals to every subscription.
        assert_eq!(
            naive.per_query_cycles, indexed.per_query_cycles,
            "fan-out strategies diverged at {subs} subscriptions"
        );
        assert_eq!(
            naive.candidates, indexed.candidates,
            "the shared pass must not depend on the fan-out strategy"
        );
        // The tentpole gate: indexed dispatch is strictly cheaper than the
        // naive loop on the same portfolio — measured in constraint checks,
        // which are deterministic.
        assert!(
            indexed.fan_out_checks < naive.fan_out_checks,
            "indexed fan-out must beat the naive loop at {subs} subscriptions \
             ({} vs {} checks)",
            indexed.fan_out_checks,
            naive.fan_out_checks,
        );
        println!(
            "{:>6} {:>7} {:>10.3} {:>10.3} {:>14} {:>12} {:>7.1} {:>9} {:>10}",
            subs,
            indexed.groups,
            naive.wall_secs * 1e3,
            indexed.wall_secs * 1e3,
            naive.fan_out_checks,
            indexed.fan_out_checks,
            naive.fan_out_checks as f64 / indexed.fan_out_checks.max(1) as f64,
            indexed.parallel_batches,
            indexed.per_query_cycles.iter().sum::<u64>(),
        );
        log.push(
            "fan_out",
            vec![
                ("threads", threads.into()),
                ("subs", subs.into()),
                ("groups", indexed.groups.into()),
                ("naive_ms", (naive.wall_secs * 1e3).into()),
                ("indexed_ms", (indexed.wall_secs * 1e3).into()),
                ("naive_checks", naive.fan_out_checks.into()),
                ("indexed_checks", indexed.fan_out_checks.into()),
                ("candidates", indexed.candidates.into()),
                ("parallel_batches", indexed.parallel_batches.into()),
                (
                    "cycles",
                    indexed.per_query_cycles.iter().sum::<u64>().into(),
                ),
            ],
        );
        checks_at.push((subs, naive.fan_out_checks, indexed.fan_out_checks));
    }
    // Sublinearity: from 64 to 1024 subscriptions the naive loop pays exactly
    // 16x the checks (same candidates, 16x the subscriptions), while the
    // index keeps dispatching against the same 16 constraint groups — its
    // per-batch cost does not grow with the subscriber count at all.
    let (_, naive_64, indexed_64) = checks_at[0];
    let (_, naive_1024, indexed_1024) = checks_at[2];
    assert_eq!(
        naive_1024,
        naive_64 * 16,
        "the naive loop's dispatch cost is linear in the portfolio size"
    );
    assert!(
        indexed_1024 <= indexed_64,
        "indexed dispatch cost must not grow with subscriber count when \
         profiles repeat ({indexed_1024} at 1024 subs vs {indexed_64} at 64)"
    );
    println!(
        "ok: identical per-query totals; indexed dispatch flat from 64 to 1024 subscriptions \
         where the naive loop grows 16x"
    );
}

/// The predicate-pushdown section: attribute-filtered portfolios over the
/// AML layering-chain, labelled-intrusion and monotone-layering streams,
/// each replayed with the portfolio's predicate union pushed into the
/// shared pass and again with every attribute check deferred to fan-out.
/// Gates (all on deterministic counters, so CI cannot flake on timing):
/// byte-identical per-query reports, strictly smaller union-member /
/// constraint-check / candidate counters under pushdown, and — on the
/// monotone-layering scenario, whose decoys defeat any per-edge predicate —
/// aggregate and positional prune counters that are positive under pushdown
/// and zero under the pass-all baseline.
fn predicate_section(smoke: bool, thread_counts: &[usize], log: &mut JsonLog) {
    let scenarios = if smoke {
        [
            PredicateScenarioConfig::aml_smoke(),
            PredicateScenarioConfig::intrusion_smoke(),
            PredicateScenarioConfig::monotone_smoke(),
        ]
    } else {
        [
            PredicateScenarioConfig::aml_full(),
            PredicateScenarioConfig::intrusion_full(),
            PredicateScenarioConfig::monotone_full(),
        ]
    };
    println!(
        "\npredicate pushdown ({}): shared-pass predicate union vs filter-at-fan-out",
        if smoke { "smoke" } else { "full" },
    );
    println!(
        "{:>18} {:>7} {:>11} {:>11} {:>11} {:>11} {:>10} {:>10} {:>9} {:>9} {:>8}",
        "scenario",
        "threads",
        "push union",
        "post union",
        "push chks",
        "post chks",
        "agg prune",
        "pos prune",
        "push ms",
        "post ms",
        "cycles"
    );
    for cfg in &scenarios {
        let name = cfg.scenario.name();
        let aggregates = name == "monotone_layering";
        let mut reference: Option<Vec<u64>> = None;
        for &threads in thread_counts {
            let cmp = run_predicate_comparison(cfg, threads).expect("valid predicate scenario");
            // Correctness: pushdown must not change what any subscription
            // sees — cycle totals and the collected cycles themselves.
            assert!(
                cmp.reports_identical(),
                "{name}: pushdown changed per-query reports at {threads} threads \
                 ({:?} vs {:?})",
                cmp.push.per_query_cycles,
                cmp.post.per_query_cycles,
            );
            // Performance, on deterministic counters: pushdown does strictly
            // less traversal (union members), dispatch (constraint checks)
            // and candidate work.
            assert!(
                cmp.pushdown_strictly_cheaper(),
                "{name}: pushdown must strictly shrink the work counters at {threads} \
                 threads (union {} vs {}, checks {} vs {}, candidates {} vs {})",
                cmp.push.union_members,
                cmp.post.union_members,
                cmp.push.fan_out_checks,
                cmp.post.fan_out_checks,
                cmp.push.candidates,
                cmp.post.candidates,
            );
            // The monotone-layering decoys are built to defeat per-edge
            // predicates, so its gap must come from the extended classes:
            // partial paths abandoned on the aggregate bounds and root
            // candidates rejected on the closing-edge floor — neither of
            // which the pass-all baseline ever records.
            if aggregates {
                assert!(
                    cmp.aggregate_pushdown_active(),
                    "{name}: aggregate pushdown must prune at {threads} threads \
                     (push {} vs post {})",
                    cmp.push.aggregate_prunes,
                    cmp.post.aggregate_prunes,
                );
                assert!(
                    cmp.positional_pushdown_active(),
                    "{name}: positional pushdown must prune at {threads} threads \
                     (push {} vs post {})",
                    cmp.push.positional_prunes,
                    cmp.post.positional_prunes,
                );
            }
            // The deterministic counters must also be thread-count
            // independent — assert against the first thread count's run.
            match &reference {
                None => reference = Some(cmp.push.per_query_cycles.clone()),
                Some(expected) => assert_eq!(
                    &cmp.push.per_query_cycles, expected,
                    "{name}: per-query totals diverged across thread counts"
                ),
            }
            println!(
                "{:>18} {:>7} {:>11} {:>11} {:>11} {:>11} {:>10} {:>10} {:>9.3} {:>9.3} {:>8}",
                name,
                threads,
                cmp.push.union_members,
                cmp.post.union_members,
                cmp.push.fan_out_checks,
                cmp.post.fan_out_checks,
                cmp.push.aggregate_prunes,
                cmp.push.positional_prunes,
                cmp.push.wall_secs * 1e3,
                cmp.post.wall_secs * 1e3,
                cmp.push.per_query_cycles.iter().sum::<u64>(),
            );
            log.push(
                "predicate",
                vec![
                    ("scenario", name.into()),
                    ("threads", threads.into()),
                    ("push_union_members", cmp.push.union_members.into()),
                    ("post_union_members", cmp.post.union_members.into()),
                    ("push_checks", cmp.push.fan_out_checks.into()),
                    ("post_checks", cmp.post.fan_out_checks.into()),
                    ("push_candidates", cmp.push.candidates.into()),
                    ("post_candidates", cmp.post.candidates.into()),
                    ("push_aggregate_prunes", cmp.push.aggregate_prunes.into()),
                    ("push_positional_prunes", cmp.push.positional_prunes.into()),
                    ("push_vertex_prunes", cmp.push.vertex_prunes.into()),
                    ("post_aggregate_prunes", cmp.post.aggregate_prunes.into()),
                    ("post_positional_prunes", cmp.post.positional_prunes.into()),
                    ("push_ms", (cmp.push.wall_secs * 1e3).into()),
                    ("post_ms", (cmp.post.wall_secs * 1e3).into()),
                    (
                        "cycles",
                        cmp.push.per_query_cycles.iter().sum::<u64>().into(),
                    ),
                ],
            );
        }
    }
    println!(
        "ok: pushdown reports byte-identical to filter-at-fan-out with strictly \
         smaller union/check/candidate counters, on all three scenarios"
    );
}

/// The durability section: logged vs in-memory ingest overhead and recovery
/// time, on both store backends. The scenario asserts report equivalence
/// internally; the gate here is on the bookkeeping shape (every batch
/// accounted for, durable storage actually exercised), not on wall time.
fn durability_section(smoke: bool, threads: usize, log: &mut JsonLog) {
    let cfg = if smoke {
        DurabilityConfig::smoke()
    } else {
        DurabilityConfig::default()
    };
    println!(
        "\ndurability ({}, {} threads, {} subscriptions): plain vs logged ingest \
         plus full crash recovery, per store backend",
        if smoke { "smoke" } else { "full" },
        threads,
        cfg.subscriptions,
    );
    println!(
        "{:>7} {:>10} {:>10} {:>9} {:>11} {:>9} {:>9} {:>9} {:>10} {:>8}",
        "backend",
        "plain ms",
        "logged ms",
        "overhead",
        "recover ms",
        "replayed",
        "hydrated",
        "skipped",
        "log KiB",
        "ckpts"
    );
    let mut reference_cycles: Option<u64> = None;
    for backend in [StoreBackend::Memory, StoreBackend::Fs] {
        let report = run_durability(&cfg, threads, backend).expect("valid durability config");
        println!(
            "{:>7} {:>10.3} {:>10.3} {:>9.2} {:>11.3} {:>9} {:>9} {:>9} {:>10.1} {:>8}",
            backend.label(),
            report.plain_secs * 1e3,
            report.durable_secs * 1e3,
            report.overhead(),
            report.recovery_secs * 1e3,
            report.replayed_batches,
            report.hydrated_batches,
            report.skipped_batches,
            report.log_bytes as f64 / 1024.0,
            report.checkpoints,
        );
        log.push(
            "durability",
            vec![
                ("backend", backend.label().into()),
                ("threads", threads.into()),
                ("subs", cfg.subscriptions.into()),
                ("batches", report.batches.into()),
                ("plain_ms", (report.plain_secs * 1e3).into()),
                ("logged_ms", (report.durable_secs * 1e3).into()),
                ("overhead", report.overhead().into()),
                ("recovery_ms", (report.recovery_secs * 1e3).into()),
                ("replayed_batches", report.replayed_batches.into()),
                ("hydrated_batches", report.hydrated_batches.into()),
                ("skipped_batches", report.skipped_batches.into()),
                ("log_bytes", report.log_bytes.into()),
                ("segments", report.segments.into()),
                ("checkpoints", report.checkpoints.into()),
                ("cycles", report.total_cycles.into()),
            ],
        );
        assert_eq!(
            report.replayed_batches + report.hydrated_batches + report.skipped_batches,
            report.batches,
            "recovery must account for every logged batch"
        );
        assert!(
            report.log_bytes > 0 && report.checkpoints > 0,
            "the durable leg must actually write segments and checkpoints"
        );
        match reference_cycles {
            None => reference_cycles = Some(report.total_cycles),
            Some(expected) => assert_eq!(
                report.total_cycles, expected,
                "cycle totals diverged across store backends"
            ),
        }
    }
    println!(
        "ok: durable and recovered engines match the plain engine on both backends \
         ({} cycles)",
        reference_cycles.unwrap_or(0),
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    // Indices of tokens consumed as flag *values*, so the positional-section
    // scan below does not re-interpret them.
    let mut value_indices: Vec<usize> = Vec::new();
    let json_path = match args.iter().position(|a| a == "--json") {
        None => None,
        Some(i) => match args.get(i + 1) {
            Some(path) if !path.starts_with("--") => {
                value_indices.push(i + 1);
                Some(path.clone())
            }
            _ => {
                eprintln!("--json requires a path argument");
                std::process::exit(2);
            }
        },
    };
    let granularity_pos = args.iter().position(|a| a == "--granularity");
    if let Some(i) = granularity_pos {
        value_indices.push(i + 1);
    }
    let granularities: Vec<Granularity> = match granularity_pos
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
    {
        Some("seq") | Some("sequential") => vec![Granularity::Sequential],
        Some("coarse") => vec![Granularity::CoarseGrained],
        Some("fine") => vec![Granularity::FineGrained],
        Some(other) => {
            eprintln!("unknown --granularity {other:?}; use seq, coarse or fine");
            std::process::exit(2);
        }
        None => vec![Granularity::CoarseGrained, Granularity::FineGrained],
    };
    let thread_counts: &[usize] = if smoke { &[1, 2] } else { &[1, 2, 4, 8] };
    let max_threads = *thread_counts.last().expect("non-empty thread counts");

    // Section selectors: with none given, every section runs; naming any
    // subset (`streaming`, `hub_burst`, `multi_query`, `fan_out`,
    // `predicate`, `durability`) runs only those. Unknown positional tokens
    // are an error, not a silent run-all — a typoed section name in CI must
    // fail fast, not change the gate.
    const SECTIONS: [&str; 6] = [
        "streaming",
        "hub_burst",
        "multi_query",
        "fan_out",
        "predicate",
        "durability",
    ];
    let mut selected: Vec<&str> = Vec::new();
    for (i, arg) in args.iter().enumerate() {
        if arg.starts_with("--") || value_indices.contains(&i) {
            continue;
        }
        match SECTIONS.iter().find(|s| *s == arg) {
            Some(section) => selected.push(section),
            None => {
                eprintln!("unknown section {arg:?}; use one of {SECTIONS:?}");
                std::process::exit(2);
            }
        }
    }
    let runs = |name: &str| selected.is_empty() || selected.contains(&name);

    let mut log = JsonLog::default();
    if runs("streaming") {
        streaming_section(smoke, &granularities, thread_counts, &mut log);
    }
    if runs("hub_burst") {
        hub_burst_section(smoke, &granularities, max_threads, &mut log);
    }
    if runs("multi_query") {
        for &granularity in &granularities {
            multi_query_section(smoke, granularity, thread_counts, &mut log);
        }
    }
    if runs("fan_out") {
        fan_out_section(smoke, max_threads, &mut log);
    }
    if runs("predicate") {
        predicate_section(smoke, thread_counts, &mut log);
    }
    if runs("durability") {
        durability_section(smoke, max_threads, &mut log);
    }

    if let Some(path) = json_path {
        std::fs::write(&path, log.render(smoke)).expect("write --json report");
        println!("\nwrote machine-readable results to {path}");
    }
}
