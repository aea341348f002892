//! End-to-end golden values for the three replacement policies.
//!
//! A small grid whose data servers hold far fewer files than the workload
//! touches, with data-server outages, is run under LRU, FIFO and LFU. Every
//! batch evicts past pinned files, some inserts overflow, and every outage
//! drops the unpinned files through `SiteStore::fail`. The asserted figures
//! were recorded from the `HashMap`/`BTreeSet` implementation of
//! `SiteStore` that preceded the slab-backed one, so any change to an
//! eviction or loss sequence shows up here as a changed makespan, eviction,
//! transfer or event count.

use std::sync::Arc;

use gridsched::prelude::*;

fn config(policy: EvictionPolicy) -> SimConfig {
    let mut workload = CoaddConfig::small(3);
    workload.tasks = 160;
    SimConfig::paper(Arc::new(workload.generate()), StrategyKind::Rest2)
        .with_sites(3)
        .with_workers_per_site(2)
        .with_capacity(200)
        .with_policy(policy)
        .with_seed(7)
        .with_faults(FaultConfig::none().with_server_faults(20_000.0, 1_500.0))
}

/// The recorded `(makespan_minutes bits, total_evictions, file_transfers,
/// events_dispatched)` of `policy`'s run.
fn golden(policy: EvictionPolicy) -> (u64, u64, u64, u64) {
    match policy {
        EvictionPolicy::Lru => (0x4098_772b_a233_c4ce, 1826, 3323, 3692),
        EvictionPolicy::Fifo => (0x4097_a168_7e51_8096, 1478, 2899, 3267),
        EvictionPolicy::Lfu => (0x4099_2fee_0831_2984, 1889, 3313, 3683),
    }
}

#[test]
fn eviction_policies_reproduce_recorded_runs() {
    for policy in EvictionPolicy::ALL {
        let (makespan_bits, evictions, transfers, events) = golden(policy);
        let r = GridSim::new(config(policy)).run();
        assert_eq!(r.tasks_completed, 160, "{policy}");
        // The run exercises what the golden values guard.
        assert!(
            r.server_outages > 0 && r.files_lost > 0,
            "{policy}: no loss"
        );
        assert_eq!(
            r.makespan_minutes.to_bits(),
            makespan_bits,
            "{policy}: makespan {} min",
            r.makespan_minutes
        );
        assert_eq!(r.total_evictions, evictions, "{policy}: evictions");
        assert_eq!(r.file_transfers, transfers, "{policy}: file transfers");
        assert_eq!(r.events_dispatched, events, "{policy}: events");
    }
}
