//! Ablations beyond the paper's own figures: extra baselines, the
//! `ChooseTask(n)` finding, churn, checkpointing, the compute-cost
//! calibration, the replacement policy and proactive replication.

use std::sync::Arc;

use gridsched_core::{ReplicaThrottle, StrategyKind};
use gridsched_sim::{CheckpointConfig, FaultConfig, MetricsReport, ReplicationConfig, SimConfig};
use gridsched_storage::EvictionPolicy;
use gridsched_workload::Workload;

use crate::{fmt, Ctx, Sweep, Table};

/// Ablation — extra baselines beyond the paper's six algorithms.
///
/// Adds the classic **workqueue** (FIFO pull, no locality — the paper's
/// §2.3 example of worker-centric scheduling) and a data-aware
/// **XSufferage**-style heuristic (the comparator storage affinity was
/// originally evaluated against, §6 and reference \[5\]) to the
/// default-configuration comparison. Expected ordering: transfer-aware
/// worker-centric metrics ≤ xsufferage ≤ storage-affinity/overlap ≪
/// workqueue on transfers.
///
/// Also sweeps storage affinity's **replica throttle** over the
/// (replica-cap, site-replica-budget) grid — the makespan-vs-wasted-compute
/// Pareto trade the `perf_scale` entries' one throttle point cannot show — and
/// marks the **knee**: the configuration minimising the summed normalised
/// distance to the utopia point (fastest makespan, least speculative
/// waste). Run with 4 workers per site so queue imbalance actually drives
/// replication (the paper's 1-worker default only replicates at the drain
/// tail). This is the measurement basis for the adaptive throttle of
/// `ablation_adaptive`: an adaptive policy should land at (or beat) the
/// knee without being told the caps.
pub(crate) fn ablation_baselines(ctx: &Ctx) {
    let workload = ctx.workload();

    let strategies = [
        StrategyKind::Rest2,
        StrategyKind::Combined2,
        StrategyKind::Sufferage,
        StrategyKind::StorageAffinity,
        StrategyKind::Overlap,
        StrategyKind::Workqueue,
    ];
    let mut table = Table::new(
        "Ablation: baseline face-off (Table 1 defaults)",
        &["algorithm", "makespan_min", "file_transfers", "bytes_GB"],
    );
    let mut measured = Vec::new();
    for strategy in strategies {
        let r = ctx.run(&SimConfig::paper(workload.clone(), strategy));
        table.push_row(vec![
            strategy.to_string(),
            fmt(r.makespan_minutes, 0),
            r.file_transfers.to_string(),
            fmt(r.bytes_transferred / 1e9, 1),
        ]);
        measured.push((strategy, r.makespan_minutes, r.file_transfers));
    }
    ctx.emit(table, "ablation_baselines");

    let get = |k: StrategyKind| measured.iter().find(|(s, _, _)| *s == k).expect("measured");
    ctx.check(
        "workqueue (no locality) is the worst on transfers",
        measured
            .iter()
            .all(|(s, _, t)| *s == StrategyKind::Workqueue || *t < get(StrategyKind::Workqueue).2),
    );
    ctx.check(
        "transfer-aware worker-centric beats xsufferage on makespan",
        get(StrategyKind::Rest2).1 < get(StrategyKind::Sufferage).1,
    );
    ctx.check(
        "xsufferage (demand-driven, data-aware) beats workqueue",
        get(StrategyKind::Sufferage).1 < get(StrategyKind::Workqueue).1,
    );

    pareto_throttle_sweep(ctx, &workload);
}

/// The replica-throttle Pareto sweep: makespan vs wasted (speculative)
/// compute over the (cap, budget) grid, knee marked in the table.
fn pareto_throttle_sweep(ctx: &Ctx, workload: &Arc<Workload>) {
    let caps: &[Option<u32>] = &[None, Some(1), Some(2), Some(4)];
    let budgets: &[Option<u32>] = &[None, Some(2), Some(8)];
    struct Point {
        label: String,
        makespan_min: f64,
        wasted_compute_s: f64,
        replicas_cancelled: u64,
    }
    let mut points: Vec<Point> = Vec::new();
    for &cap in caps {
        for &budget in budgets {
            let mut throttle = ReplicaThrottle::none();
            if let Some(c) = cap {
                throttle = throttle.with_replica_cap(c);
            }
            if let Some(b) = budget {
                throttle = throttle.with_site_budget(b);
            }
            let config = SimConfig::paper(workload.clone(), StrategyKind::StorageAffinity)
                .with_workers_per_site(4)
                .with_replica_throttle(throttle);
            let r = ctx.run(&config);
            points.push(Point {
                label: throttle.summary(),
                makespan_min: r.makespan_minutes,
                wasted_compute_s: r.wasted_compute_s,
                replicas_cancelled: r.replicas_cancelled,
            });
        }
    }
    // Knee: minimal summed normalised distance to the utopia point. Both
    // axes are min-max normalised so neither unit dominates.
    let min_max = |vals: &mut dyn Iterator<Item = f64>| -> (f64, f64) {
        vals.fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
            (lo.min(v), hi.max(v))
        })
    };
    let (m_lo, m_hi) = min_max(&mut points.iter().map(|p| p.makespan_min));
    let (w_lo, w_hi) = min_max(&mut points.iter().map(|p| p.wasted_compute_s));
    let norm = |v: f64, lo: f64, hi: f64| {
        if hi > lo {
            (v - lo) / (hi - lo)
        } else {
            0.0
        }
    };
    let knee = points
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let score = norm(p.makespan_min, m_lo, m_hi) + norm(p.wasted_compute_s, w_lo, w_hi);
            (i, score)
        })
        .min_by(|a, b| a.1.partial_cmp(&b.1).expect("scores are finite"))
        .map(|(i, _)| i)
        .expect("non-empty sweep");

    let mut table = Table::new(
        "Ablation: replica-throttle Pareto sweep (storage affinity, 4 workers/site)",
        &[
            "throttle",
            "makespan_min",
            "wasted_compute_h",
            "replicas_cancelled",
            "knee",
        ],
    );
    for (i, p) in points.iter().enumerate() {
        table.push_row(vec![
            p.label.clone(),
            fmt(p.makespan_min, 0),
            fmt(p.wasted_compute_s / 3600.0, 1),
            p.replicas_cancelled.to_string(),
            if i == knee {
                "<-- knee".to_string()
            } else {
                String::new()
            },
        ]);
    }
    ctx.emit(table, "ablation_throttle_pareto");

    let uncapped = &points[0];
    let kneep = &points[knee];
    println!(
        "knee: {} (makespan {:.0} min, wasted {:.1} h) vs uncapped (makespan {:.0} min, \
         wasted {:.1} h)",
        kneep.label,
        kneep.makespan_min,
        kneep.wasted_compute_s / 3600.0,
        uncapped.makespan_min,
        uncapped.wasted_compute_s / 3600.0,
    );
    ctx.check(
        "some throttle setting cuts speculative waste below uncapped",
        points[1..]
            .iter()
            .any(|p| p.wasted_compute_s < uncapped.wasted_compute_s),
    );
    ctx.check(
        "the knee stays within 10% of the best makespan",
        kneep.makespan_min <= m_lo * 1.10,
    );
}

/// Ablation — checkpoint interval × MTBF under churn.
///
/// A second axis the paper could not explore: once the grid churns
/// (`ablation_churn`), how much of the lost work can checkpoint/restart
/// buy back, and at what overhead? Sweeps checkpoint policies (none, two
/// fixed intervals of 900 s and 3,600 s, the adaptive Young/Daly optimum)
/// against worker MTBFs of 21,600 s and 7,200 s (MTTR fixed at MTBF/6,
/// like `ablation_churn`) across all six compared algorithms, reporting
/// makespan, wasted compute, checkpoint volume and work saved per
/// strategy.
///
/// The interesting trade-off: short intervals bound the work a crash can
/// destroy but stall compute with image writes (which also contend with
/// file staging on the site's access link); long intervals are cheap but
/// rescue little. Young/Daly should sit near the sweet spot at every MTBF
/// without hand-tuning.
pub(crate) fn ablation_checkpoint(ctx: &Ctx) {
    let workload = ctx.workload();
    let mut policies: Vec<(String, Option<CheckpointConfig>)> = vec![("none".into(), None)];
    for interval in [900.0, 3_600.0] {
        policies.push((
            format!("fixed:{interval:.0}s"),
            Some(CheckpointConfig::fixed(interval)),
        ));
    }
    policies.push(("young-daly".into(), Some(CheckpointConfig::young_daly())));

    let mut table = Table::new(
        "Ablation: checkpoint policy x worker MTBF (MTTR = MTBF/6)",
        &[
            "algorithm",
            "mtbf_s",
            "policy",
            "makespan_min",
            "wasted_h",
            "ckpt_written",
            "ckpt_lost",
            "restores",
            "overhead_h",
            "saved_h",
        ],
    );

    // (strategy, mtbf) -> the no-checkpoint baseline report.
    let mut baselines: Vec<(String, f64, MetricsReport)> = Vec::new();
    let mut checkpointed: Vec<(String, MetricsReport)> = Vec::new();
    for strategy in StrategyKind::PAPER_SET {
        for mtbf in [21_600.0, 7_200.0] {
            for (label, ckpt) in &policies {
                let mut config = SimConfig::paper(workload.clone(), strategy)
                    .with_faults(FaultConfig::none().with_worker_faults(mtbf, mtbf / 6.0));
                if let Some(c) = *ckpt {
                    config = config.with_checkpointing(c);
                }
                let r = ctx.run(&config);
                table.push_row(vec![
                    strategy.to_string(),
                    fmt(mtbf, 0),
                    label.clone(),
                    fmt(r.makespan_minutes, 0),
                    fmt(r.wasted_compute_s / 3600.0, 1),
                    r.checkpoints_written.to_string(),
                    r.checkpoints_lost.to_string(),
                    r.checkpoint_restores.to_string(),
                    fmt(r.checkpoint_overhead_s / 3600.0, 1),
                    fmt(r.work_saved_s / 3600.0, 1),
                ]);
                if ckpt.is_none() {
                    baselines.push((strategy.to_string(), mtbf, r));
                } else {
                    checkpointed.push((strategy.to_string(), r));
                }
            }
        }
    }
    ctx.emit(table, "ablation_checkpoint");

    let tasks = workload.task_count() as u64;
    ctx.check(
        "every strategy completes the whole job under every policy",
        checkpointed.iter().all(|(_, r)| r.tasks_completed == tasks)
            && baselines.iter().all(|(_, _, r)| r.tasks_completed == tasks),
    );
    ctx.check(
        "checkpointing actually writes images and restores from them",
        checkpointed
            .iter()
            .all(|(_, r)| r.checkpoints_written > 0 && r.checkpoint_restores > 0),
    );
    // The headline claim: Young/Daly cuts re-executed compute vs the
    // no-checkpoint baseline at the same seed, for every strategy x MTBF.
    let yd_beats_none = baselines.iter().all(|(strategy, mtbf, base)| {
        checkpointed
            .iter()
            .filter(|(s, r)| {
                s == strategy
                    && r.config.checkpointing.starts_with("young-daly")
                    && r.config.faults == base.config.faults
            })
            .all(|(_, r)| r.wasted_compute_s < base.wasted_compute_s)
            && *mtbf > 0.0
    });
    ctx.check(
        "young-daly strictly cuts wasted compute vs no checkpointing",
        yd_beats_none,
    );
    ctx.check(
        "rescued work shows up in the accounting (saved_h > 0 under churn)",
        checkpointed.iter().all(|(_, r)| r.work_saved_s > 0.0),
    );
}

/// Ablation — `ChooseTask(n)` for n ∈ {1, 2, 4, 8, 16}.
///
/// §4.3/§5.3: the paper tried several n and found only 1 and 2 give good
/// results. This ablation regenerates that finding: a little randomization
/// (n = 2) avoids sub-optimal greedy matches, but larger n dilutes the
/// metric until the scheduler approaches random dispatch.
///
/// Only the full grid (n ∈ {1, 2, 4, 8, 16}, seeds 0–4) is gated, where
/// both checks pass. The quick grid (n ∈ {1, 4}) cannot show the finding:
/// its n = 1 and n = 4 `rest` makespans are 0.1% apart on seed 0 (7,636
/// vs 7,626 min), "small n beats large n" holds only for single seeds 3,
/// 4, 6 and 9 of seeds 0–9, and it fails averaged over seeds 0–4 too. The
/// quick grid stays as it is, informational.
pub(crate) fn ablation_choose_n(ctx: &Ctx) {
    let workload = ctx.workload();
    let ns: &[usize] = if ctx.quick {
        &[1, 4]
    } else {
        &[1, 2, 4, 8, 16]
    };

    let mut table = Table::new(
        "Ablation: ChooseTask(n) sweep",
        &["n", "metric", "makespan_min", "file_transfers"],
    );
    let sweep = Sweep::run(
        ctx,
        ns,
        &[StrategyKind::Rest, StrategyKind::Combined],
        |n, strategy| SimConfig::paper(workload.clone(), strategy).with_choose_n(n),
        |n, strategy, r| {
            table.push_row(vec![
                n.to_string(),
                strategy.to_string(),
                fmt(r.makespan_minutes, 0),
                r.file_transfers.to_string(),
            ]);
        },
    );
    ctx.emit(table, "ablation_choose_n");

    let rest = sweep.of(StrategyKind::Rest);
    let makespans = |keep: fn(usize) -> bool| {
        ns.iter()
            .zip(rest)
            .filter(move |&(&n, _)| keep(n))
            .map(|(_, r)| r.makespan_minutes)
    };
    let small_n_best = makespans(|n| n <= 2).fold(f64::MAX, f64::min);
    let large_n_worst = makespans(|n| n >= 4).fold(f64::MIN, f64::max);
    ctx.check(
        "small n (1-2) beats large n (>=4) — 'only 1 and 2 give good results'",
        small_n_best < large_n_worst,
    );
    ctx.check(
        "transfers grow as n grows (metric dilution)",
        rest[0].file_transfers <= rest[rest.len() - 1].file_transfers,
    );
}

/// Ablation — graceful degradation under churn.
///
/// A new experiment axis the paper could not explore: how do the six
/// compared algorithms degrade when the grid churns? Sweeps worker MTBF
/// from "no faults" down to aggressive churn (with MTTR fixed at MTBF/6)
/// plus a data-server churn level, and reports makespan inflation,
/// re-execution volume, wasted compute and availability per strategy.
///
/// The interesting question is *relative* degradation: task-centric
/// storage affinity pre-assigns everything and must re-absorb orphaned
/// work through its replication channel, while worker-centric strategies
/// requeue and reschedule at the next idle request — late binding should
/// degrade more gracefully.
pub(crate) fn ablation_churn(ctx: &Ctx) {
    let workload = ctx.workload();

    let mut table = Table::new(
        "Ablation: churn sweep (worker MTBF, MTTR = MTBF/6; server MTBF = 4x worker)",
        &[
            "algorithm",
            "mtbf_s",
            "makespan_min",
            "slowdown",
            "tasks_lost",
            "re_exec",
            "wasted_h",
            "worker_avail",
            "server_avail",
        ],
    );

    let mut worst = Vec::new();
    for strategy in StrategyKind::PAPER_SET {
        // Worker MTBF levels (seconds); `None` is the fault-free baseline.
        let mut baseline = None;
        for mtbf in [None, Some(86_400.0), Some(21_600.0), Some(7_200.0)] {
            let mut config = SimConfig::paper(workload.clone(), strategy);
            if let Some(mtbf_s) = mtbf {
                config = config.with_faults(
                    FaultConfig::none()
                        .with_worker_faults(mtbf_s, mtbf_s / 6.0)
                        .with_server_faults(4.0 * mtbf_s, mtbf_s / 6.0),
                );
            }
            let r = ctx.run(&config);
            let slowdown = baseline.map_or(1.0, |b| r.makespan_minutes / b);
            table.push_row(vec![
                strategy.to_string(),
                mtbf.map_or_else(|| "inf".to_string(), |m| fmt(m, 0)),
                fmt(r.makespan_minutes, 0),
                fmt(slowdown, 3),
                r.tasks_lost.to_string(),
                r.re_executions.to_string(),
                fmt(r.wasted_compute_s / 3600.0, 1),
                fmt(r.mean_worker_availability(), 4),
                fmt(r.mean_server_availability(), 4),
            ]);
            match mtbf {
                None => {
                    assert_eq!(r.tasks_lost, 0, "fault-free baseline must not lose tasks");
                    baseline = Some(r.makespan_minutes);
                }
                Some(mtbf_s) if mtbf_s < 10_000.0 => worst.push(r),
                Some(_) => {}
            }
        }
    }
    ctx.emit(table, "ablation_churn");

    let tasks = workload.task_count() as u64;
    ctx.check(
        "every strategy completes the whole job at the highest churn level",
        worst.iter().all(|r| r.tasks_completed == tasks),
    );
    ctx.check(
        "aggressive churn actually injects faults (crashes and lost tasks)",
        worst
            .iter()
            .all(|r| r.worker_crashes > 0 && r.tasks_lost > 0),
    );
    ctx.check(
        "re-execution accounting consistent (re_exec >= tasks_lost)",
        worst.iter().all(|r| r.re_executions >= r.tasks_lost),
    );
    ctx.check(
        "churn shows up in availability (< 100% workers up)",
        worst.iter().all(|r| r.mean_worker_availability() < 1.0),
    );
}

/// Ablation — sensitivity to the calibrated compute cost.
///
/// DESIGN.md §5 documents that the paper does not state Coadd's per-task
/// FLOP count; we calibrated `flops_per_file` so aggregate compute
/// dominates as the paper's figures imply. This ablation scales that
/// constant ×0.5 / ×1 / ×2 and verifies the paper's *qualitative* results
/// are insensitive to it: `rest` still beats `overlap` on both makespan
/// and transfers, and worker-centric still beats storage affinity.
pub(crate) fn ablation_compute_scale(ctx: &Ctx) {
    let scales: &[f64] = if ctx.quick {
        &[0.5, 2.0]
    } else {
        &[0.5, 1.0, 2.0]
    };

    let mut table = Table::new(
        "Ablation: compute-cost scale",
        &["flops_scale", "algorithm", "makespan_min", "file_transfers"],
    );
    let mut ordering_holds = true;
    for &scale in scales {
        let mut coadd = ctx.coadd_config();
        coadd.flops_per_file *= scale;
        let workload = Arc::new(coadd.generate());
        let mut makespans = Vec::new();
        for strategy in [
            StrategyKind::Rest,
            StrategyKind::Overlap,
            StrategyKind::StorageAffinity,
        ] {
            let r = ctx.run(&SimConfig::paper(workload.clone(), strategy));
            table.push_row(vec![
                fmt(scale, 1),
                strategy.to_string(),
                fmt(r.makespan_minutes, 0),
                r.file_transfers.to_string(),
            ]);
            makespans.push(r.makespan_minutes);
        }
        // rest < overlap and rest < storage affinity at every scale.
        ordering_holds &= makespans[0] < makespans[1] && makespans[0] < makespans[2];
    }
    ctx.emit(table, "ablation_compute_scale");

    ctx.check(
        "algorithm ranking is insensitive to the compute-cost calibration",
        ordering_holds,
    );
}

/// Ablation — data-server replacement policy (LRU / FIFO / LFU).
///
/// The paper does not pin down its simulated replacement policy; DESIGN.md
/// defaults to LRU. This ablation verifies the conclusions are not an
/// artifact of that choice: at paper-default capacity the policies are
/// nearly indistinguishable (working sets fit), and even under pressure
/// (small capacity) the algorithm ranking — worker-centric `rest` over
/// task-centric storage affinity — is preserved for every policy.
pub(crate) fn ablation_policy(ctx: &Ctx) {
    let workload = ctx.workload();
    let capacities: &[usize] = if ctx.quick { &[1500] } else { &[3000, 6000] };

    let mut table = Table::new(
        "Ablation: replacement policy",
        &[
            "capacity",
            "policy",
            "algorithm",
            "makespan_min",
            "evictions",
        ],
    );
    let mut rankings_hold = true;
    for &cap in capacities {
        for policy in EvictionPolicy::ALL {
            let mut makespans = Vec::new();
            for strategy in [StrategyKind::Rest, StrategyKind::StorageAffinity] {
                let config = SimConfig::paper(workload.clone(), strategy)
                    .with_capacity(cap)
                    .with_policy(policy);
                let r = ctx.run(&config);
                table.push_row(vec![
                    cap.to_string(),
                    policy.to_string(),
                    strategy.to_string(),
                    fmt(r.makespan_minutes, 0),
                    r.total_evictions.to_string(),
                ]);
                makespans.push(r.makespan_minutes);
            }
            // rest (index 0) must beat storage affinity (index 1).
            rankings_hold &= makespans[0] < makespans[1];
        }
    }
    ctx.emit(table, "ablation_policy");

    ctx.check(
        "rest beats storage affinity under every replacement policy",
        rankings_hold,
    );
}

/// Ablation — proactive data replication (Ranganathan & Foster, reference
/// \[13\]).
///
/// §3.2 of the paper claims data replication is **orthogonal** to
/// worker-centric scheduling: task-centric schedulers need it to fix
/// unbalanced assignments; worker-centric schedulers do not. We run `rest`
/// and `storage-affinity` with the popularity-threshold replication
/// extension on and off: the worker-centric makespan should barely move
/// (it may pay for the extra pushes), while storage affinity benefits
/// more, and the ranking does not change.
pub(crate) fn ablation_replication(ctx: &Ctx) {
    let workload = ctx.workload();

    let mut table = Table::new(
        "Ablation: proactive data replication",
        &[
            "algorithm",
            "replication",
            "makespan_min",
            "pushes",
            "bytes_GB",
        ],
    );
    let mut measured = Vec::new();
    for strategy in [StrategyKind::Rest, StrategyKind::StorageAffinity] {
        for threshold in [None, Some(4), Some(8)] {
            let mut config = SimConfig::paper(workload.clone(), strategy);
            if let Some(t) = threshold {
                config = config.with_replication(ReplicationConfig {
                    popularity_threshold: t,
                    max_replicas_per_file: 1,
                });
            }
            let r = ctx.run(&config);
            table.push_row(vec![
                strategy.to_string(),
                threshold.map_or("off".into(), |t| format!("threshold={t}")),
                fmt(r.makespan_minutes, 0),
                r.replication_pushes.to_string(),
                fmt(r.bytes_transferred / 1e9, 1),
            ]);
            measured.push((strategy, threshold, r.makespan_minutes));
        }
    }
    ctx.emit(table, "ablation_replication");

    let get = |s: StrategyKind, t: Option<u32>| {
        measured
            .iter()
            .find(|(ms, mt, _)| *ms == s && *mt == t)
            .expect("measured")
            .2
    };
    let rest_off = get(StrategyKind::Rest, None);
    let rest_on = get(StrategyKind::Rest, Some(4)).min(get(StrategyKind::Rest, Some(8)));
    ctx.check(
        "replication changes worker-centric makespan by <10% (orthogonal)",
        (rest_on - rest_off).abs() / rest_off < 0.10,
    );
    let sa_off = get(StrategyKind::StorageAffinity, None);
    ctx.check(
        "worker-centric without replication still beats storage affinity with it",
        rest_off
            < get(StrategyKind::StorageAffinity, Some(4))
                .min(get(StrategyKind::StorageAffinity, Some(8)))
                .min(sa_off),
    );
}
