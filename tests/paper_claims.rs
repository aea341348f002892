//! Scaled-down versions of the paper's qualitative claims, cheap enough
//! for `cargo test`. The full-scale versions are the `claims` binary's
//! entries under `--check` (`gridsched-bench`).

use std::sync::Arc;

use gridsched::prelude::*;

fn workload(tasks: u32) -> Arc<Workload> {
    let mut cfg = CoaddConfig::paper_6000();
    cfg.tasks = tasks;
    Arc::new(cfg.generate())
}

fn run(config: SimConfig, seeds: &[u64]) -> MetricsReport {
    run_averaged(&config, seeds)
}

/// §5.4 / Figure 5: the overlap metric does not consider the number of
/// transfers and therefore performs more of them than `rest`.
#[test]
fn overlap_transfers_exceed_rest() {
    let wl = workload(600);
    let seeds = [0u64, 1];
    let overlap = run(SimConfig::paper(wl.clone(), StrategyKind::Overlap), &seeds);
    let rest = run(SimConfig::paper(wl, StrategyKind::Rest), &seeds);
    assert!(
        overlap.file_transfers as f64 > rest.file_transfers as f64 * 1.2,
        "overlap {} vs rest {}",
        overlap.file_transfers,
        rest.file_transfers
    );
    assert!(overlap.makespan_minutes > rest.makespan_minutes);
}

/// §5.6 / Figure 7: more sites reduce the makespan.
#[test]
fn more_sites_reduce_makespan() {
    let wl = workload(600);
    let seeds = [0u64];
    let small = run(
        SimConfig::paper(wl.clone(), StrategyKind::Combined2).with_sites(4),
        &seeds,
    );
    let large = run(
        SimConfig::paper(wl, StrategyKind::Combined2).with_sites(12),
        &seeds,
    );
    assert!(large.makespan_minutes < small.makespan_minutes);
}

/// §5.7 / Figure 8: larger files grow the makespan.
#[test]
fn larger_files_grow_makespan() {
    let seeds = [0u64];
    let mut cfg = CoaddConfig::paper_6000();
    cfg.tasks = 600;
    let small = run(
        SimConfig::paper(
            Arc::new(cfg.clone().with_file_size_mb(5.0).generate()),
            StrategyKind::Rest,
        ),
        &seeds,
    );
    let large = run(
        SimConfig::paper(
            Arc::new(cfg.with_file_size_mb(50.0).generate()),
            StrategyKind::Rest,
        ),
        &seeds,
    );
    assert!(large.makespan_minutes > small.makespan_minutes);
}

/// §5.5 / Figure 6: adding workers per site reduces makespan, but the
/// per-request waiting time at the serialising data server rises.
#[test]
fn workers_tradeoff() {
    let wl = workload(600);
    let seeds = [0u64];
    let two = run(
        SimConfig::paper(wl.clone(), StrategyKind::Rest).with_workers_per_site(2),
        &seeds,
    );
    let eight = run(
        SimConfig::paper(wl, StrategyKind::Rest).with_workers_per_site(8),
        &seeds,
    );
    assert!(eight.makespan_minutes < two.makespan_minutes);
    assert!(eight.avg_waiting_hours() >= two.avg_waiting_hours());
}

/// §3.2: data replication is orthogonal to worker-centric scheduling —
/// enabling it does not change the worker-centric result much.
#[test]
fn replication_is_orthogonal_for_worker_centric() {
    let wl = workload(600);
    let seeds = [0u64];
    let without = run(SimConfig::paper(wl.clone(), StrategyKind::Rest), &seeds);
    let with = run(
        SimConfig::paper(wl, StrategyKind::Rest).with_replication(ReplicationConfig {
            popularity_threshold: 4,
            max_replicas_per_file: 1,
        }),
        &seeds,
    );
    let delta = (with.makespan_minutes - without.makespan_minutes).abs();
    assert!(
        delta / without.makespan_minutes < 0.15,
        "replication moved worker-centric makespan by {delta} min"
    );
    assert!(with.replication_pushes > 0, "the extension actually ran");
}

/// Table 2 / Figure 3 statistics hold for the full-size workload (cheap —
/// generation only, no simulation).
#[test]
fn workload_statistics_match_table2() {
    let wl = CoaddConfig::paper_6000().generate();
    let s = wl.stats();
    assert_eq!(s.tasks, 6000);
    assert!((s.total_files as f64 - 53_390.0).abs() < 53_390.0 * 0.05);
    assert!((s.mean_files_per_task - 78.4327).abs() < 3.0);
    let pct6 = s.pct_files_with_at_least(6);
    assert!((75.0..=97.0).contains(&pct6), "pct >=6 refs: {pct6}");
}
