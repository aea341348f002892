//! Whole-report golden pins for two small mixed-fault runs.
//!
//! Between them the two runs drive every counter the engine accumulates
//! during a run — replica races, worker bursts, server and link outages,
//! the transfer guard in both retry modes, checkpoint restores, adaptive
//! control and proactive replication — and the test first checks that
//! each of those counters is non-zero in at least one run, so the pin
//! guards every accounting path. It then compares an FNV-1a-64 hash of
//! each report's `Debug` rendering with the recorded value, and one of
//! each run's determinism digest stream (the `--digest-out` JSONL, which
//! chains every dispatched event's time, kind and payload), so a change
//! in dispatch order fails here even when the report happens to survive
//! it. The hashes were
//! first recorded from the engine that kept one field per counter in
//! `GridSim`, and re-recorded when the network engine moved from a
//! per-event to a per-rate-epoch byte drain, a change that left every
//! integer field identical and moved float fields by at most a few parts
//! in 10⁹. Any change to a number, an event order or a field's formatting
//! changes the hash.

use std::sync::Arc;

use gridsched::prelude::*;
use gridsched::sim::SiteMetrics;

fn workload() -> Arc<Workload> {
    Arc::new(CoaddConfig::small(2).generate())
}

/// Storage affinity under a static replica cap, with every adaptive
/// control loop on, the resuming transfer guard (failover included),
/// self-tuned checkpoints and replication, under worker bursts, server
/// outages and degraded link windows.
fn storage_affinity_adaptive() -> SimConfig {
    let wl = workload();
    let files = wl.file_count();
    SimConfig::paper(wl, StrategyKind::StorageAffinity)
        .with_sites(4)
        .with_workers_per_site(3)
        .with_capacity(files / 6)
        .with_seed(1)
        .with_topology_seed(1)
        .with_replica_cap(2)
        .with_replication(ReplicationConfig {
            popularity_threshold: 2,
            max_replicas_per_file: 3,
        })
        .with_faults(
            FaultConfig::none()
                .with_worker_faults(6_000.0, 600.0)
                .with_worker_bursts(4_000.0, 2)
                .with_server_faults(9_000.0, 900.0)
                .with_link_faults(5_000.0, 600.0)
                .with_link_degrade_factor(0.3),
        )
        .with_checkpointing(CheckpointConfig::young_daly_adaptive())
        .with_control(
            ControlConfig::none()
                .with_adaptive_throttle()
                .with_churn_placement()
                .with_adaptive_checkpoint()
                .with_tick_s(120.0),
        )
        .with_transfer_timeout(2.0)
        .with_transfer_retries(2)
        .with_retry_backoff(30.0)
}

/// Worker-centric `combined.2` with the naive restart-from-zero guard and
/// fixed-interval checkpoints, under worker, server and hard link faults
/// plus a scripted partition.
fn combined_naive_retry() -> SimConfig {
    let wl = workload();
    let files = wl.file_count();
    let trace = FaultTrace::parse("300 partition 1\n3000 partition-heal 1").expect("parses");
    SimConfig::paper(wl, StrategyKind::Combined2)
        .with_sites(4)
        .with_workers_per_site(3)
        .with_capacity(files / 6)
        .with_seed(42)
        .with_topology_seed(2)
        .with_replication(ReplicationConfig {
            popularity_threshold: 2,
            max_replicas_per_file: 3,
        })
        .with_faults(
            FaultConfig::none()
                .with_worker_faults(5_000.0, 600.0)
                .with_server_faults(10_000.0, 600.0)
                .with_link_faults(4_000.0, 500.0)
                .with_trace(trace),
        )
        .with_checkpointing(CheckpointConfig::fixed(900.0))
        .with_transfer_timeout(2.0)
        .with_transfer_retries(3)
        .with_retry_backoff(30.0)
        .with_naive_retry()
}

/// Every counter a run accumulates, by name.
fn ledger(r: &MetricsReport) -> Vec<(&'static str, f64)> {
    let site = |f: fn(&SiteMetrics) -> f64| r.per_site.iter().map(f).sum::<f64>();
    vec![
        ("requests", site(|s| s.requests as f64)),
        ("waiting_time_s", site(|s| s.waiting_time_s)),
        ("transfer_time_s", site(|s| s.transfer_time_s)),
        ("file_transfers", site(|s| s.file_transfers as f64)),
        ("bytes_transferred", site(|s| s.bytes_transferred)),
        ("tasks_started", site(|s| s.tasks_started as f64)),
        ("evictions", site(|s| s.evictions as f64)),
        ("worker_downtime_s", site(|s| s.worker_downtime_s)),
        ("server_downtime_s", site(|s| s.server_downtime_s)),
        ("files_lost", site(|s| s.files_lost as f64)),
        ("tasks_completed", r.tasks_completed as f64),
        ("replicas_launched", r.replicas_launched as f64),
        ("replicas_cancelled", r.replicas_cancelled as f64),
        ("replicas_completed", r.replicas_completed as f64),
        ("primaries_cancelled", r.primaries_cancelled as f64),
        ("replicas_lost", r.replicas_lost as f64),
        ("cancelled_bytes", r.cancelled_bytes),
        ("replication_pushes", r.replication_pushes as f64),
        ("replication_bytes", r.replication_bytes),
        ("tasks_lost", r.tasks_lost as f64),
        ("re_executions", r.re_executions as f64),
        ("worker_crashes", r.worker_crashes as f64),
        ("server_outages", r.server_outages as f64),
        ("wasted_compute_s", r.wasted_compute_s),
        ("checkpoint_restores", r.checkpoint_restores as f64),
        ("checkpoint_overhead_s", r.checkpoint_overhead_s),
        ("work_saved_s", r.work_saved_s),
        ("link_outages", r.link_outages as f64),
        ("link_downtime_s", r.link_downtime_s),
        ("xfer_timeouts", r.xfer_timeouts as f64),
        ("xfer_retries", r.xfer_retries as f64),
        ("xfer_failovers", r.xfer_failovers as f64),
        ("xfer_bytes_resumed", r.xfer_bytes_resumed),
        ("xfer_bytes_retransmitted", r.xfer_bytes_retransmitted),
        ("flows_started", r.flows_started as f64),
        ("flows_completed", r.flows_completed as f64),
        ("flows_aborted", r.flows_aborted as f64),
        ("flows_retrying", r.flows_retrying as f64),
        ("flows_requeued", r.flows_requeued as f64),
    ]
}

/// FNV-1a-64 of the storage-affinity run's `--digest-out` stream.
const DIGEST_SA: u64 = 0x7aa2_766f_4bf1_ff5c;
/// FNV-1a-64 of the combined.2 run's `--digest-out` stream.
const DIGEST_CN: u64 = 0x58df_6b92_3914_3b82;

fn fnv1a64(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn mixed_fault_reports_match_their_recorded_hashes() {
    // (name, config, report hash, digest-stream hash)
    let runs = [
        (
            "storage-affinity adaptive",
            storage_affinity_adaptive(),
            0xfe31_e338_0222_add9,
            DIGEST_SA,
        ),
        (
            "combined.2 naive retry",
            combined_naive_retry(),
            0x6cd4_729d_4ac8_4788,
            DIGEST_CN,
        ),
    ];
    let dir = std::env::temp_dir();
    let digests: Vec<String> = (0..runs.len())
        .map(|i| {
            let path = dir.join(format!(
                "gridsched-report-golden-{}-{i}.jsonl",
                std::process::id()
            ));
            path.to_str().expect("utf-8 temp path").to_owned()
        })
        .collect();
    let reports: Vec<MetricsReport> = runs
        .iter()
        .zip(&digests)
        .map(|((_, config, _, _), path)| {
            GridSim::new(config.clone().with_digest_out(path.clone())).run()
        })
        .collect();
    let ledgers: Vec<_> = reports.iter().map(ledger).collect();
    for (i, &(name, _)) in ledgers[0].iter().enumerate() {
        assert!(
            ledgers.iter().any(|l| l[i].1 > 0.0),
            "no run exercises `{name}`"
        );
    }
    for (((name, _, golden, digest_golden), report), path) in
        runs.iter().zip(&reports).zip(&digests)
    {
        let debug = format!("{report:?}");
        assert_eq!(
            fnv1a64(&debug),
            *golden,
            "{name}: report changed; its Debug rendering is\n{debug}"
        );
        let stream = std::fs::read_to_string(path).expect("digest stream written");
        std::fs::remove_file(path).expect("remove digest stream");
        assert_eq!(
            fnv1a64(&stream),
            *digest_golden,
            "{name}: dispatch order changed (digest stream hash {:#x})",
            fnv1a64(&stream)
        );
    }
}
