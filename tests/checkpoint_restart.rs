//! Property-based and scripted guarantees of the checkpoint/restart
//! subsystem, checked through the public API:
//!
//! 1. a **`CheckpointPolicy::None`** config reproduces the PR 1 churn
//!    engine's `MetricsReport` exactly (every field, including event
//!    counts) — checkpointing off is not merely "similar", it is the same
//!    simulation;
//! 2. a scripted crash mid-task provably resumes from the last checkpoint:
//!    the re-executed work stays below one checkpoint interval (plus the
//!    image-write stall) instead of the whole progress so far;
//! 3. with stochastic churn and Young/Daly checkpointing on, total
//!    re-executed compute time is strictly lower than the no-checkpoint
//!    run on the same seed (the ISSUE's acceptance criterion);
//! 4. checkpoint images die with the data server that holds them;
//! 5. a restore fetch whose source server fails mid-transfer restarts the
//!    task from scratch.

use std::sync::Arc;

use proptest::prelude::*;

use gridsched::prelude::*;
use gridsched::telemetry::{SpanPhase, TraceEvent, Track};

fn small_workload(seed: u64, tasks: u32) -> Arc<Workload> {
    let mut cfg = CoaddConfig::small(seed);
    cfg.tasks = tasks;
    Arc::new(cfg.generate())
}

fn base_config(strategy: StrategyKind, sites: usize, seed: u64) -> SimConfig {
    SimConfig::paper(small_workload(seed, 120), strategy)
        .with_sites(sites)
        .with_capacity(600)
        .with_seed(seed)
}

fn arb_strategy() -> impl Strategy<Value = StrategyKind> {
    prop_oneof![
        Just(StrategyKind::StorageAffinity),
        Just(StrategyKind::Rest),
        Just(StrategyKind::Rest2),
        Just(StrategyKind::Combined2),
        Just(StrategyKind::Workqueue),
        Just(StrategyKind::Sufferage),
    ]
}

proptest! {
    // Whole-simulation cases are expensive; a moderate case count still
    // covers strategy x fault-shape x seed combinations well.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// (1) `--checkpoint-policy none` must be invisible: same
    /// `MetricsReport`, field for field, as not configuring checkpointing
    /// at all — under arbitrary seeded churn.
    #[test]
    fn policy_none_reproduces_churn_engine_exactly(
        strategy in arb_strategy(),
        sites in 2usize..4,
        worker_mtbf in 2_000.0f64..30_000.0,
        worker_mttr in 120.0f64..1_500.0,
        server_mtbf in 20_000.0f64..80_000.0,
        seed in 0u64..1_000,
    ) {
        let faults = FaultConfig::none()
            .with_worker_faults(worker_mtbf, worker_mttr)
            .with_server_faults(server_mtbf, 600.0);
        let plain = GridSim::new(
            base_config(strategy, sites, seed).with_faults(faults.clone()),
        )
        .run();
        let inert = GridSim::new(
            base_config(strategy, sites, seed)
                .with_faults(faults)
                .with_checkpointing(CheckpointConfig::none()),
        )
        .run();
        prop_assert_eq!(&plain, &inert, "inert checkpointing perturbed {}", strategy);
        prop_assert_eq!(plain.events_dispatched, inert.events_dispatched);
        prop_assert_eq!(inert.checkpoints_written, 0);
        prop_assert_eq!(inert.checkpoint_restores, 0);
        prop_assert_eq!(inert.work_saved_s, 0.0);
        prop_assert_eq!(inert.config.checkpointing.as_str(), "none");
    }

    /// (3) Young/Daly checkpointing strictly cuts re-executed compute
    /// under churn aggressive enough to actually lose tasks.
    #[test]
    fn young_daly_strictly_cuts_wasted_compute(
        strategy in arb_strategy(),
        seed in 0u64..200,
    ) {
        let faulty = |s: StrategyKind, seed: u64| {
            base_config(s, 3, seed)
                .with_faults(FaultConfig::none().with_worker_faults(2_500.0, 300.0))
        };
        let plain = GridSim::new(faulty(strategy, seed)).run();
        // Only meaningful when the churn actually destroyed work (at this
        // MTBF it essentially always does).
        if plain.wasted_compute_s > 0.0 {
            let ckpt = GridSim::new(
                faulty(strategy, seed).with_checkpointing(CheckpointConfig::young_daly()),
            )
            .run();
            prop_assert_eq!(ckpt.tasks_completed, 120);
            prop_assert!(
                ckpt.wasted_compute_s < plain.wasted_compute_s,
                "{}: checkpointed waste {} !< plain waste {}",
                strategy, ckpt.wasted_compute_s, plain.wasted_compute_s
            );
        }
    }
}

/// (2) A scripted crash mid-task resumes from the last checkpoint: the
/// work re-executed is bounded by one checkpoint interval plus the image
/// write stall — not by the task's whole progress.
#[test]
fn scripted_crash_resumes_from_last_checkpoint() {
    const INTERVAL_S: f64 = 300.0;
    // One site, one worker, fixed speed: the timeline is fully scripted.
    // CoaddConfig::small tasks run for thousands of seconds at 1e10
    // flop/s, so a crash 2 h in lands mid-computation with several
    // checkpoints behind it.
    let trace = "7200 worker-crash 0 0\n7500 worker-recover 0 0\n";
    let cfg = |ckpt: Option<CheckpointConfig>| {
        let mut c = SimConfig::paper(small_workload(7, 120), StrategyKind::Workqueue)
            .with_sites(1)
            .with_capacity(600)
            .with_seed(7)
            .with_speeds(SpeedModel::Fixed(1e10))
            .with_faults(
                FaultConfig::none().with_trace(FaultTrace::parse(trace).expect("valid trace")),
            );
        if let Some(k) = ckpt {
            c = c.with_checkpointing(k);
        }
        c
    };
    let plain = GridSim::new(cfg(None)).run();
    let ckpt = GridSim::new(cfg(Some(CheckpointConfig::fixed(INTERVAL_S)))).run();

    assert_eq!(plain.tasks_completed, 120);
    assert_eq!(ckpt.tasks_completed, 120);
    assert_eq!(ckpt.worker_crashes, 1);
    // The crash must actually have destroyed compute in the baseline,
    // and more than one interval's worth (otherwise the bound is vacuous).
    assert!(
        plain.wasted_compute_s > INTERVAL_S,
        "baseline crash wasted only {}s",
        plain.wasted_compute_s
    );
    assert!(ckpt.checkpoints_written > 0);
    assert!(ckpt.checkpoint_restores >= 1, "the resume must restore");
    assert!(ckpt.work_saved_s > 0.0);
    // The bound: everything since the last durable image is re-executed,
    // which is under one interval of compute plus the aborted image-write
    // stall (the write itself takes seconds on the site's access link).
    let write_slack_s = 120.0;
    assert!(
        ckpt.wasted_compute_s < INTERVAL_S + write_slack_s,
        "re-executed work {}s exceeds one interval ({INTERVAL_S}s + slack)",
        ckpt.wasted_compute_s
    );
    assert!(
        ckpt.wasted_compute_s < plain.wasted_compute_s,
        "checkpointing must beat the baseline: {} vs {}",
        ckpt.wasted_compute_s,
        plain.wasted_compute_s
    );
    // Replays are byte-identical.
    let replay = GridSim::new(cfg(Some(CheckpointConfig::fixed(INTERVAL_S)))).run();
    assert_eq!(ckpt, replay);
}

/// (4) Checkpoint images die with the data server that held them: an
/// outage after images accumulated loses them, and a later crash cannot
/// restore what no longer exists.
#[test]
fn server_outage_loses_checkpoint_images() {
    // One site: every image lives on the server that fails at t=7200.
    let trace = "7200 server-fail 0\n7300 server-recover 0\n";
    let config = SimConfig::paper(small_workload(9, 120), StrategyKind::Workqueue)
        .with_sites(1)
        .with_capacity(20_000)
        .with_seed(9)
        .with_speeds(SpeedModel::Fixed(1e10))
        .with_faults(FaultConfig::none().with_trace(FaultTrace::parse(trace).expect("valid")))
        .with_checkpointing(CheckpointConfig::fixed(300.0));
    let report = GridSim::new(config).run();
    assert_eq!(report.tasks_completed, 120);
    assert_eq!(report.server_outages, 1);
    assert!(
        report.checkpoints_lost > 0,
        "a warm vault must lose images to the outage"
    );
}

/// Seconds worker `w` spent in `compute` spans of `task`.
fn compute_s(events: &[TraceEvent], w: usize, task: u64) -> f64 {
    let mut open: Option<(f64, Option<u64>)> = None;
    let mut total = 0.0;
    for e in events
        .iter()
        .filter(|e| e.track == Track::worker(w) && e.name == "compute")
    {
        match e.phase {
            SpanPhase::Begin => open = Some((e.ts_s, e.task)),
            SpanPhase::End => {
                if let Some((begin, Some(t))) = open.take() {
                    if t == task {
                        total += e.ts_s - begin;
                    }
                }
            }
            SpanPhase::Instant => {}
        }
    }
    total
}

/// (5) A restore fetch whose source server fails mid-transfer: the image
/// dies with the server, so the worker that was fetching it starts the
/// task over from scratch, and the aborted fetch counts no restore.
#[test]
fn restore_source_outage_restarts_from_scratch() {
    // Two sites, one worker each, fixed speed. The site-0 worker crashes
    // 2 h in and never recovers, so its orphaned task — whose images sit
    // on site 0's server — is re-run by the site-1 worker, which must
    // fetch the latest image across sites.
    let workload = small_workload(7, 40);
    let config = |trace: &str| {
        SimConfig::paper(workload.clone(), StrategyKind::Workqueue)
            .with_sites(2)
            .with_capacity(600)
            .with_seed(7)
            .with_speeds(SpeedModel::Fixed(1e10))
            .with_faults(FaultConfig::none().with_trace(FaultTrace::parse(trace).expect("valid")))
            .with_checkpointing(CheckpointConfig::fixed(300.0))
    };
    let crash = "7200 worker-crash 0 0\n";
    let run = |trace: &str| {
        let telemetry = Telemetry::enabled();
        let report = GridSim::new(config(trace))
            .with_telemetry(telemetry.clone())
            .run();
        (report, telemetry.trace_events())
    };

    // Undisturbed, the site-1 worker fetches the image and resumes.
    let (calm, events) = run(crash);
    let fetch: Vec<&TraceEvent> = events
        .iter()
        .filter(|e| e.track == Track::worker(1) && e.name == "restore")
        .collect();
    let [begin, end] = fetch[..] else {
        panic!("expected one cross-site restore fetch: {fetch:?}");
    };
    assert_eq!(begin.phase, SpanPhase::Begin);
    let task = begin.task.expect("restore spans carry their task");
    let full_s = workload.tasks()[task as usize].flops / 1e10;
    assert_eq!(calm.tasks_completed, 40);
    assert_eq!(calm.checkpoint_restores, 1);
    assert!(calm.work_saved_s > 0.0);
    assert!(
        compute_s(&events, 1, task) < full_s - 1.0,
        "the restored run must skip the saved work"
    );

    // Site 0's server fails halfway through that fetch.
    let fail_s = (begin.ts_s + end.ts_s) / 2.0;
    let trace = format!(
        "{crash}{fail_s:.6} server-fail 0\n{:.6} server-recover 0\n",
        fail_s + 600.0
    );
    let (stormy, events) = run(&trace);
    assert_eq!(stormy.tasks_completed, 40);
    assert_eq!(stormy.server_outages, 1);
    assert!(
        stormy.checkpoints_lost > 0,
        "the image dies with its server"
    );
    assert_eq!(
        stormy.checkpoint_restores, 0,
        "the aborted fetch restores nothing"
    );
    assert_eq!(stormy.work_saved_s, 0.0);
    assert_eq!(
        stormy.flows_started,
        stormy.flows_completed
            + stormy.flows_aborted
            + stormy.flows_retrying
            + stormy.flows_requeued,
        "flow ledger"
    );
    // The fetching worker recomputes the whole task.
    let redone_s = compute_s(&events, 1, task);
    assert!(
        (redone_s - full_s).abs() < 1e-6 * full_s,
        "recomputed {redone_s}s of a {full_s}s task"
    );
}

/// Weibull repairs parse through the whole stack: shape 1 is the legacy
/// engine exactly, fatter tails change the run.
#[test]
fn weibull_repair_shape_round_trip() {
    let cfg = |shape: Option<f64>| {
        let mut f = FaultConfig::none().with_worker_faults(3_000.0, 400.0);
        if let Some(k) = shape {
            f = f.with_worker_repair_shape(k);
        }
        base_config(StrategyKind::Rest2, 2, 11).with_faults(f)
    };
    let legacy = GridSim::new(cfg(None)).run();
    let unit_shape = GridSim::new(cfg(Some(1.0))).run();
    assert_eq!(legacy, unit_shape, "shape 1 must be the exponential engine");
    let fat = GridSim::new(cfg(Some(0.5))).run();
    assert_eq!(fat.tasks_completed, 120);
    assert_ne!(
        fat.makespan_minutes, legacy.makespan_minutes,
        "fat-tailed repairs must change the run"
    );
}
