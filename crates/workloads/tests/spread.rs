//! Worker-spread test of the hub-burst scenario: a single-root burst batch
//! must engage more than one worker of a fine-grained engine.
//!
//! A fine search hands work off only once a second worker has registered as
//! idle, and on a small machine the search can end before one does when other
//! tests fill the cores. So this test lives in a binary of its own: cargo
//! runs test binaries one at a time, so no other test competes for the cores.

use pce_core::Granularity;
use pce_workloads::streaming::{run_hub_burst, HubBurstConfig};

#[test]
fn hub_burst_fine_engages_extra_workers_where_coarse_cannot() {
    let cfg = HubBurstConfig::smoke();
    let coarse = run_hub_burst(&cfg, 4, Granularity::CoarseGrained).unwrap();
    assert_eq!(coarse.cycles, cfg.expected_cycles());
    // The burst batch has one root: coarse degrades to a single worker.
    assert_eq!(coarse.busy_workers(), 1, "coarse pins to one worker");
    assert_eq!(coarse.burst_stats.work.total_steals(), 0);
    // Fine splits the rooted search itself, once an idle worker is
    // scheduled in time: a few attempts on a multicore, none on one core.
    // The cycle count and the copy bound hold on every run.
    let single_core = pce_core::sched::available_parallelism() < 2;
    let attempts = if single_core { 1 } else { 5 };
    let mut spread = false;
    for attempt in 0..attempts {
        let fine = run_hub_burst(&cfg, 4, Granularity::FineGrained).unwrap();
        assert_eq!(fine.cycles, cfg.expected_cycles(), "attempt {attempt}");
        let work = &fine.burst_stats.work;
        let calls = work.total_recursive_calls();
        assert!(
            work.total_copies() <= calls / 4,
            "attempt {attempt}: {} copies for {calls} calls",
            work.total_copies()
        );
        spread = fine.busy_workers() > 1 && work.total_steals() > 0;
        if spread {
            break;
        }
    }
    assert!(
        spread || single_core,
        "fine must spread the burst in {attempts} runs"
    );
}
