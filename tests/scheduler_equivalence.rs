//! The optimisation-correctness contract: both scheduler evaluation paths
//! — `Naive` (the paper's per-decision file probing) and `Incremental`
//! (bucketed priority indexes, the default) — must produce
//! **byte-identical simulations**: the same assignment sequence, hence the
//! same event trace, hence the same `MetricsReport` down to the last bit
//! of every float.
//!
//! Checked for all strategies over random grid shapes, with randomized
//! `ChooseTask(2)` selection (which also pins down RNG-consumption
//! equality), and under fault injection + checkpoint/restart, where pool
//! membership churns (requeues) mid-run.

use std::sync::Arc;

use proptest::prelude::*;

use gridsched::prelude::*;

fn arb_strategy() -> impl Strategy<Value = StrategyKind> {
    prop_oneof![
        Just(StrategyKind::StorageAffinity),
        Just(StrategyKind::Overlap),
        Just(StrategyKind::Rest),
        Just(StrategyKind::Combined),
        Just(StrategyKind::Rest2),
        Just(StrategyKind::Combined2),
        Just(StrategyKind::Workqueue),
        Just(StrategyKind::Sufferage),
    ]
}

fn run_with(config: &SimConfig, mode: EvalMode) -> MetricsReport {
    GridSim::new(config.clone().with_eval_mode(mode)).run()
}

/// Like [`run_with`], but with every instrument, span and probe recording
/// live (no file outputs — the collector is injected directly).
fn run_traced(config: &SimConfig, mode: EvalMode) -> MetricsReport {
    GridSim::new(config.clone().with_eval_mode(mode))
        .with_telemetry(Telemetry::enabled())
        .run()
}

proptest! {
    // Whole-simulation cases are expensive; keep the case count moderate.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Fault-free runs: both paths agree exactly.
    #[test]
    fn eval_modes_agree(
        strategy in arb_strategy(),
        sites in 1usize..5,
        workers in 1usize..4,
        capacity in 120usize..1500,
        wl_seed in 0u64..3,
        seed in 0u64..3,
    ) {
        let mut cfg = CoaddConfig::small(wl_seed);
        cfg.tasks = 100;
        let workload = Arc::new(cfg.generate());
        let config = SimConfig::paper(workload, strategy)
            .with_sites(sites)
            .with_workers_per_site(workers)
            .with_capacity(capacity)
            .with_seed(seed);
        let incremental = run_with(&config, EvalMode::Incremental);
        let naive = run_with(&config, EvalMode::Naive);
        prop_assert_eq!(&incremental, &naive, "incremental vs naive ({})", strategy);
    }

    /// Under churn (requeues through `on_worker_lost`) plus
    /// checkpoint/restart, the paths still agree exactly.
    #[test]
    fn eval_modes_agree_under_churn_and_checkpointing(
        strategy in arb_strategy(),
        sites in 2usize..5,
        seed in 0u64..3,
        mtbf in 2_000.0f64..6_000.0,
        checkpoint in 0u8..2,
    ) {
        let mut cfg = CoaddConfig::small(seed);
        cfg.tasks = 80;
        let workload = Arc::new(cfg.generate());
        let mut config = SimConfig::paper(workload, strategy)
            .with_sites(sites)
            .with_capacity(400)
            .with_seed(seed)
            .with_faults(
                FaultConfig::none()
                    .with_worker_faults(mtbf, 400.0)
                    .with_server_faults(mtbf * 8.0, 700.0),
            );
        if checkpoint == 1 {
            config = config.with_checkpointing(CheckpointConfig::fixed(300.0));
        }
        let incremental = run_with(&config, EvalMode::Incremental);
        let naive = run_with(&config, EvalMode::Naive);
        prop_assert_eq!(&incremental, &naive, "incremental vs naive ({})", strategy);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Replica-throttled storage affinity: the capped pick — site-budget
    /// pre-check plus saturated tasks withdrawn from the overlap index —
    /// must agree byte-for-byte across both evaluation paths, with
    /// and without churn-driven requeues.
    #[test]
    fn eval_modes_agree_under_replica_throttle(
        sites in 2usize..5,
        workers in 1usize..4,
        capacity in 120usize..1500,
        cap in prop_oneof![Just(None), (1u32..4).prop_map(Some)],
        budget in prop_oneof![Just(None), (1u32..5).prop_map(Some)],
        mtbf in prop_oneof![Just(None), (2_000.0f64..6_000.0).prop_map(Some)],
        seed in 0u64..3,
    ) {
        let mut throttle = ReplicaThrottle::none();
        if let Some(c) = cap {
            throttle = throttle.with_replica_cap(c);
        }
        if let Some(b) = budget {
            throttle = throttle.with_site_budget(b);
        }
        let mut cfg = CoaddConfig::small(seed);
        cfg.tasks = 100;
        let workload = Arc::new(cfg.generate());
        let mut config = SimConfig::paper(workload, StrategyKind::StorageAffinity)
            .with_sites(sites)
            .with_workers_per_site(workers)
            .with_capacity(capacity)
            .with_seed(seed)
            .with_replica_throttle(throttle);
        if let Some(mtbf) = mtbf {
            config = config.with_faults(FaultConfig::none().with_worker_faults(mtbf, 400.0));
        }
        let incremental = run_with(&config, EvalMode::Incremental);
        let naive = run_with(&config, EvalMode::Naive);
        prop_assert_eq!(&incremental, &naive, "incremental vs naive ({:?})", throttle);
        prop_assert_eq!(incremental.tasks_completed, 100);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The telemetry inertness contract: a run with every instrument, span
    /// and probe recording live produces a byte-identical `MetricsReport`
    /// to a run with telemetry off — no RNG draw, no event reordering, no
    /// float drift — across strategies, grid shapes and churn.
    #[test]
    fn telemetry_is_provably_inert(
        strategy in arb_strategy(),
        sites in 1usize..5,
        workers in 1usize..4,
        capacity in 120usize..1500,
        seed in 0u64..3,
        churn in 0u8..2,
    ) {
        let mut cfg = CoaddConfig::small(seed);
        cfg.tasks = 80;
        let workload = Arc::new(cfg.generate());
        let mut config = SimConfig::paper(workload, strategy)
            .with_sites(sites)
            .with_workers_per_site(workers)
            .with_capacity(capacity)
            .with_seed(seed);
        if churn == 1 && sites >= 2 {
            config = config
                .with_faults(
                    FaultConfig::none()
                        .with_worker_faults(3_000.0, 400.0)
                        .with_server_faults(25_000.0, 700.0),
                )
                .with_checkpointing(CheckpointConfig::fixed(300.0));
        }
        let off = run_with(&config, EvalMode::Incremental);
        let on = run_traced(&config, EvalMode::Incremental);
        prop_assert_eq!(&off, &on, "telemetry perturbed the run ({})", strategy);
    }

    /// The control-plane inertness contract over random shapes: an
    /// explicit `ControlConfig::none()` (every loop off) is byte-identical
    /// to a config that never mentions the control plane, across
    /// strategies, eval modes, grid shapes and churn + checkpointing.
    #[test]
    fn controllers_disabled_are_byte_inert(
        strategy in arb_strategy(),
        sites in 2usize..5,
        workers in 1usize..4,
        seed in 0u64..3,
        mode in prop_oneof![
            Just(EvalMode::Incremental),
            Just(EvalMode::Naive),
        ],
    ) {
        let mut cfg = CoaddConfig::small(seed);
        cfg.tasks = 80;
        let workload = Arc::new(cfg.generate());
        let config = SimConfig::paper(workload, strategy)
            .with_sites(sites)
            .with_workers_per_site(workers)
            .with_capacity(400)
            .with_seed(seed)
            .with_faults(
                FaultConfig::none()
                    .with_worker_faults(3_000.0, 400.0)
                    .with_server_faults(25_000.0, 700.0),
            )
            .with_checkpointing(CheckpointConfig::fixed(300.0));
        let plain = run_with(&config, mode);
        let explicit =
            GridSim::new(config.with_eval_mode(mode).with_control(ControlConfig::none())).run();
        prop_assert_eq!(&plain, &explicit, "controllers-off perturbed {} {:?}", strategy, mode);
        prop_assert_eq!(plain.config.control.as_str(), "none");
    }
}

/// The acceptance matrix pinned deterministically: telemetry on vs off is
/// byte-identical for **all 8 strategies × both eval modes** under churn
/// and checkpointing, plus throttled storage affinity.
#[test]
fn telemetry_on_off_identical_all_strategies_and_modes() {
    let mut cfg = CoaddConfig::small(3);
    cfg.tasks = 80;
    let workload = Arc::new(cfg.generate());
    let strategies = [
        StrategyKind::StorageAffinity,
        StrategyKind::Overlap,
        StrategyKind::Rest,
        StrategyKind::Combined,
        StrategyKind::Rest2,
        StrategyKind::Combined2,
        StrategyKind::Workqueue,
        StrategyKind::Sufferage,
    ];
    for strategy in strategies {
        let config = SimConfig::paper(Arc::clone(&workload), strategy)
            .with_sites(3)
            .with_capacity(400)
            .with_seed(2)
            .with_faults(
                FaultConfig::none()
                    .with_worker_faults(3_000.0, 400.0)
                    .with_server_faults(25_000.0, 700.0),
            )
            .with_checkpointing(CheckpointConfig::fixed(300.0));
        for mode in [EvalMode::Incremental, EvalMode::Naive] {
            let off = run_with(&config, mode);
            let on = run_traced(&config, mode);
            assert_eq!(off, on, "telemetry perturbed {strategy} in {mode:?}");
        }
    }
    // Throttled storage affinity: the throttle instruments record on the
    // admit/park/release hot path — they must still change nothing.
    let config = SimConfig::paper(workload, StrategyKind::StorageAffinity)
        .with_sites(3)
        .with_capacity(400)
        .with_seed(2)
        .with_replica_throttle(
            ReplicaThrottle::none()
                .with_replica_cap(1)
                .with_site_budget(2),
        )
        .with_faults(FaultConfig::none().with_worker_faults(3_000.0, 400.0));
    for mode in [EvalMode::Incremental, EvalMode::Naive] {
        let off = run_with(&config, mode);
        let on = run_traced(&config, mode);
        assert_eq!(off, on, "telemetry perturbed the throttled run in {mode:?}");
    }
}

/// Determinism digests and the /metrics exposition ride the dispatch
/// loop itself (the digest folds every popped event; the server publishes
/// rendered snapshots) — they must be exactly as inert as the rest of the
/// telemetry stack: byte-identical `MetricsReport`, identical
/// `events_dispatched`, whether or not a digest is being folded and an
/// HTTP thread is serving.
#[test]
fn digests_and_exposition_are_inert() {
    let mut cfg = CoaddConfig::small(5);
    cfg.tasks = 80;
    let workload = Arc::new(cfg.generate());
    let digest_path = std::env::temp_dir().join(format!(
        "gridsched-inertness-{}.digest.jsonl",
        std::process::id()
    ));
    let digest_path = digest_path.to_str().expect("utf-8 temp path").to_string();
    for strategy in [
        StrategyKind::StorageAffinity,
        StrategyKind::Combined2,
        StrategyKind::Sufferage,
    ] {
        let base = SimConfig::paper(Arc::clone(&workload), strategy)
            .with_sites(3)
            .with_capacity(400)
            .with_seed(2)
            .with_faults(
                FaultConfig::none()
                    .with_worker_faults(3_000.0, 400.0)
                    .with_server_faults(25_000.0, 700.0),
            )
            .with_checkpointing(CheckpointConfig::fixed(300.0));
        let plain = GridSim::new(base.clone()).run();
        let observed = GridSim::new(
            base.clone()
                .with_digest_out(&digest_path)
                .with_digest_window(600.0)
                .with_serve_metrics("127.0.0.1:0"),
        )
        .with_telemetry(Telemetry::enabled())
        .run();
        assert_eq!(plain, observed, "digest/exposition perturbed {strategy}");
        assert_eq!(plain.events_dispatched, observed.events_dispatched);
        // The digest really was written, and covers every dispatched event.
        let stream = DigestStream::parse_jsonl(
            &std::fs::read_to_string(&digest_path).expect("digest file written"),
        )
        .expect("digest parses");
        assert_eq!(stream.events, plain.events_dispatched, "{strategy}");
    }
    let _ = std::fs::remove_file(&digest_path);
}

/// The new flags' default-off path: a config that never mentions the
/// throttle and one that passes `ReplicaThrottle::none()` explicitly (what
/// the CLI builds when `--replica-cap`/`--site-replica-budget` are absent)
/// produce byte-identical reports with the throttle summarised as "none".
#[test]
fn throttle_default_off_is_inert() {
    let mut cfg = CoaddConfig::small(0);
    cfg.tasks = 120;
    let workload = Arc::new(cfg.generate());
    let base = SimConfig::paper(workload, StrategyKind::StorageAffinity)
        .with_sites(3)
        .with_capacity(500)
        .with_seed(1);
    let plain = GridSim::new(base.clone()).run();
    let explicit = GridSim::new(base.with_replica_throttle(ReplicaThrottle::none())).run();
    assert_eq!(plain, explicit);
    assert_eq!(plain.config.replica_throttle, "none");
}

/// The control plane's default-off path: a config that never mentions the
/// controllers and one that passes `ControlConfig::none()` explicitly
/// (what the CLI builds when `--adaptive` is absent) produce
/// byte-identical reports with the control summarised as "none".
#[test]
fn controls_default_off_is_inert() {
    let mut cfg = CoaddConfig::small(0);
    cfg.tasks = 120;
    let workload = Arc::new(cfg.generate());
    let base = SimConfig::paper(workload, StrategyKind::StorageAffinity)
        .with_sites(3)
        .with_capacity(500)
        .with_seed(1)
        .with_faults(FaultConfig::none().with_worker_faults(3_000.0, 400.0));
    let plain = GridSim::new(base.clone()).run();
    let explicit = GridSim::new(base.with_control(ControlConfig::none())).run();
    assert_eq!(plain, explicit);
    assert_eq!(plain.config.control, "none");
}

/// The controllers-disabled byte-identity matrix: with every loop off, all
/// 8 strategies × both eval modes under churn + checkpointing (plus the
/// replica throttle on storage affinity) produce byte-identical
/// `MetricsReport`s AND byte-identical determinism-digest streams whether
/// the config spells out `ControlConfig::none()` or never mentions the
/// control plane at all — the tick scaffolding, breaker gating hooks and
/// scored push targeting must all be dead code when no loop is enabled.
#[test]
fn controllers_disabled_byte_identity_full_matrix() {
    let mut cfg = CoaddConfig::small(3);
    cfg.tasks = 80;
    let workload = Arc::new(cfg.generate());
    let tmp = std::env::temp_dir();
    let digest_a = tmp.join(format!("gridsched-ctrl-off-a-{}.jsonl", std::process::id()));
    let digest_b = tmp.join(format!("gridsched-ctrl-off-b-{}.jsonl", std::process::id()));
    let (digest_a, digest_b) = (
        digest_a.to_str().expect("utf-8 temp path").to_string(),
        digest_b.to_str().expect("utf-8 temp path").to_string(),
    );
    let strategies = [
        StrategyKind::StorageAffinity,
        StrategyKind::Overlap,
        StrategyKind::Rest,
        StrategyKind::Combined,
        StrategyKind::Rest2,
        StrategyKind::Combined2,
        StrategyKind::Workqueue,
        StrategyKind::Sufferage,
    ];
    for strategy in strategies {
        let mut base = SimConfig::paper(Arc::clone(&workload), strategy)
            .with_sites(3)
            .with_capacity(400)
            .with_seed(2)
            .with_faults(
                FaultConfig::none()
                    .with_worker_faults(3_000.0, 400.0)
                    .with_server_faults(25_000.0, 700.0),
            )
            .with_checkpointing(CheckpointConfig::fixed(300.0));
        if strategy == StrategyKind::StorageAffinity {
            base = base.with_replica_throttle(
                ReplicaThrottle::none()
                    .with_replica_cap(1)
                    .with_site_budget(2),
            );
        }
        for mode in [EvalMode::Incremental, EvalMode::Naive] {
            let plain =
                GridSim::new(base.clone().with_eval_mode(mode).with_digest_out(&digest_a)).run();
            let explicit = GridSim::new(
                base.clone()
                    .with_eval_mode(mode)
                    .with_control(ControlConfig::none())
                    .with_digest_out(&digest_b),
            )
            .run();
            assert_eq!(
                plain, explicit,
                "ControlConfig::none() perturbed {strategy} in {mode:?}"
            );
            assert_eq!(plain.config.control, "none");
            let bytes_a = std::fs::read(&digest_a).expect("digest a written");
            let bytes_b = std::fs::read(&digest_b).expect("digest b written");
            assert_eq!(
                bytes_a, bytes_b,
                "digest streams diverged for {strategy} in {mode:?}"
            );
        }
    }
    let _ = std::fs::remove_file(&digest_a);
    let _ = std::fs::remove_file(&digest_b);
}

/// Controllers **enabled** must still be deterministic: two identical runs
/// with every loop live — adaptive throttle, churn-aware placement with
/// breakers, self-tuning Young–Daly — under correlated crash bursts
/// produce byte-identical reports and byte-identical digest streams.
#[test]
fn controllers_enabled_runs_are_repeatable() {
    let mut cfg = CoaddConfig::small(4);
    cfg.tasks = 80;
    let workload = Arc::new(cfg.generate());
    let tmp = std::env::temp_dir();
    let digest_a = tmp.join(format!("gridsched-ctrl-on-a-{}.jsonl", std::process::id()));
    let digest_b = tmp.join(format!("gridsched-ctrl-on-b-{}.jsonl", std::process::id()));
    let (digest_a, digest_b) = (
        digest_a.to_str().expect("utf-8 temp path").to_string(),
        digest_b.to_str().expect("utf-8 temp path").to_string(),
    );
    let base = SimConfig::paper(workload, StrategyKind::StorageAffinity)
        .with_sites(3)
        .with_workers_per_site(2)
        .with_capacity(400)
        .with_seed(2)
        .with_faults(
            FaultConfig::none()
                .with_worker_faults(2_500.0, 400.0)
                .with_worker_bursts(3_000.0, 2),
        )
        .with_checkpointing(CheckpointConfig::young_daly_adaptive())
        .with_control(
            ControlConfig::none()
                .with_adaptive_throttle()
                .with_churn_placement()
                .with_adaptive_checkpoint()
                .with_tick_s(120.0),
        );
    let a = GridSim::new(base.clone().with_digest_out(&digest_a)).run();
    let b = GridSim::new(base.clone().with_digest_out(&digest_b)).run();
    assert_eq!(a, b, "controllers-enabled repeat runs diverged");
    assert_eq!(a.tasks_completed, 80);
    assert_eq!(a.config.control, "throttle+placement+checkpoint tick=120s");
    let bytes_a = std::fs::read(&digest_a).expect("digest a written");
    let bytes_b = std::fs::read(&digest_b).expect("digest b written");
    assert_eq!(
        bytes_a, bytes_b,
        "controllers-enabled digest streams diverged"
    );
    let stream = DigestStream::parse_jsonl(&String::from_utf8(bytes_a).expect("digest is utf-8"))
        .expect("digest parses");
    assert_eq!(stream.events, a.events_dispatched);
    let _ = std::fs::remove_file(&digest_a);
    let _ = std::fs::remove_file(&digest_b);
}

/// The transfer guard's zero-link-fault contract: with no link faults
/// configured, the guard's armed-but-always-cancelled deadlines must leave
/// the run byte-identical to today's — for **all 8 strategies × both eval
/// modes** under worker/server churn + checkpointing. Cancelled guard
/// events never dispatch, so the determinism-digest streams compare equal
/// byte-for-byte, and the reports agree on everything except the config
/// summary line that names the guard.
#[test]
fn transfer_guard_without_link_faults_is_byte_inert() {
    let mut cfg = CoaddConfig::small(3);
    cfg.tasks = 80;
    let workload = Arc::new(cfg.generate());
    let tmp = std::env::temp_dir();
    let digest_a = tmp.join(format!("gridsched-guard-off-{}.jsonl", std::process::id()));
    let digest_b = tmp.join(format!("gridsched-guard-on-{}.jsonl", std::process::id()));
    let (digest_a, digest_b) = (
        digest_a.to_str().expect("utf-8 temp path").to_string(),
        digest_b.to_str().expect("utf-8 temp path").to_string(),
    );
    let strategies = [
        StrategyKind::StorageAffinity,
        StrategyKind::Overlap,
        StrategyKind::Rest,
        StrategyKind::Combined,
        StrategyKind::Rest2,
        StrategyKind::Combined2,
        StrategyKind::Workqueue,
        StrategyKind::Sufferage,
    ];
    for strategy in strategies {
        let base = SimConfig::paper(Arc::clone(&workload), strategy)
            .with_sites(3)
            .with_capacity(400)
            .with_seed(2)
            .with_faults(
                FaultConfig::none()
                    .with_worker_faults(3_000.0, 400.0)
                    .with_server_faults(25_000.0, 700.0),
            )
            .with_checkpointing(CheckpointConfig::fixed(300.0));
        let guarded = base
            .clone()
            .with_transfer_timeout(4.0)
            .with_transfer_retries(3)
            .with_retry_backoff(30.0);
        for mode in [EvalMode::Incremental, EvalMode::Naive] {
            let plain =
                GridSim::new(base.clone().with_eval_mode(mode).with_digest_out(&digest_a)).run();
            let on = GridSim::new(
                guarded
                    .clone()
                    .with_eval_mode(mode)
                    .with_digest_out(&digest_b),
            )
            .run();
            assert_eq!(
                on.xfer_timeouts, 0,
                "{strategy} {mode:?}: guard fired with no faults"
            );
            assert_eq!(on.flows_retrying, 0, "{strategy} {mode:?}");
            assert_eq!(on.flows_requeued, 0, "{strategy} {mode:?}");
            // Whole-report equality modulo the config summary naming the
            // guard.
            let mut normalized = on.clone();
            normalized.config.transfer_guard = plain.config.transfer_guard.clone();
            assert_eq!(
                plain, normalized,
                "transfer guard perturbed {strategy} in {mode:?}"
            );
            let bytes_a = std::fs::read(&digest_a).expect("digest a written");
            let bytes_b = std::fs::read(&digest_b).expect("digest b written");
            assert_eq!(
                bytes_a, bytes_b,
                "digest streams diverged for {strategy} in {mode:?}"
            );
        }
    }
    let _ = std::fs::remove_file(&digest_a);
    let _ = std::fs::remove_file(&digest_b);
}

/// The sparse-propagation path at the site counts where it actually
/// matters: with S ≥ 32 every pool insert/remove used to broadcast into
/// 32+ rank indexes, and sufferage's best-two refresh rescanned 32+ sites
/// per storage event — the sparse site ranks over one shared cold rank and
/// the per-task site sets replace all of that, and must stay byte-identical
/// to the scan paths for **all** strategies with churn and checkpointing
/// requeuing tasks mid-run (plus a replica-throttled storage-affinity
/// variant, whose cap crossings move tasks in and out of the ranks under a
/// wide fan-out).
#[test]
fn eval_modes_agree_large_s() {
    let mut cfg = CoaddConfig::small(7);
    cfg.tasks = 120;
    let workload = Arc::new(cfg.generate());
    let strategies = [
        StrategyKind::StorageAffinity,
        StrategyKind::Overlap,
        StrategyKind::Rest,
        StrategyKind::Combined,
        StrategyKind::Rest2,
        StrategyKind::Combined2,
        StrategyKind::Workqueue,
        StrategyKind::Sufferage,
    ];
    for strategy in strategies {
        let config = SimConfig::paper(Arc::clone(&workload), strategy)
            .with_sites(32)
            .with_capacity(400)
            .with_seed(2)
            .with_faults(
                FaultConfig::none()
                    .with_worker_faults(3_000.0, 400.0)
                    .with_server_faults(25_000.0, 700.0),
            )
            .with_checkpointing(CheckpointConfig::fixed(300.0));
        let incremental = run_with(&config, EvalMode::Incremental);
        let naive = run_with(&config, EvalMode::Naive);
        assert_eq!(incremental, naive, "incremental vs naive ({strategy})");
        assert_eq!(incremental.tasks_completed, 120, "{strategy}");
    }
    // Replica-throttled storage affinity at 32 sites: a tight cap keeps
    // tasks cycling through saturation/release, so rank withdrawal and
    // re-admission are exercised across many sites.
    let config = SimConfig::paper(workload, StrategyKind::StorageAffinity)
        .with_sites(32)
        .with_capacity(400)
        .with_seed(2)
        .with_replica_throttle(
            ReplicaThrottle::none()
                .with_replica_cap(1)
                .with_site_budget(2),
        )
        .with_faults(FaultConfig::none().with_worker_faults(3_000.0, 400.0));
    let incremental = run_with(&config, EvalMode::Incremental);
    let naive = run_with(&config, EvalMode::Naive);
    assert_eq!(incremental, naive, "throttled incremental vs naive");
    assert_eq!(incremental.tasks_completed, 120);
}

/// A fixed-shape smoke version that always runs (proptest shrinks its own
/// cases; this pins one deterministic configuration for quick triage).
#[test]
fn eval_modes_agree_smoke() {
    let mut cfg = CoaddConfig::small(0);
    cfg.tasks = 120;
    let workload = Arc::new(cfg.generate());
    for strategy in [
        StrategyKind::StorageAffinity,
        StrategyKind::Rest2,
        StrategyKind::Combined2,
        StrategyKind::Sufferage,
    ] {
        let config = SimConfig::paper(Arc::clone(&workload), strategy)
            .with_sites(3)
            .with_capacity(500)
            .with_seed(1);
        let a = run_with(&config, EvalMode::Incremental);
        let b = run_with(&config, EvalMode::Naive);
        assert_eq!(a, b, "{strategy}");
    }
}
