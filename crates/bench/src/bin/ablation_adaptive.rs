//! Ablation — adaptive fault-tolerance: do the closed loops earn their
//! keep against hand-tuned static configurations?
//!
//! Three face-offs, one per controller:
//!
//! 1. **Adaptive replica throttle** (storage affinity, 4 workers/site —
//!    the Pareto-sweep setup of `ablation_baselines`): uncapped
//!    vs the hand-tuned `cap=1 site-budget=2` knee vs the closed loop,
//!    which is told *nothing* about caps and must land at (or beat) the
//!    knee on both speculative waste and makespan.
//! 2. **Churn-aware placement + circuit breakers** under a flaky-site
//!    storm (scripted recurring crash episodes at two sites over a mild
//!    uniform background): every static strategy runs open-loop, then
//!    the best of them re-runs with the placement loop. Crashes at a
//!    flaky site *predict more crashes there* — exactly the structure a
//!    breaker can learn — so the loop must beat the best static
//!    strategy while visibly tripping breakers.
//! 3. **Self-tuning Young–Daly**: a declared-MTBF `young-daly` oracle vs
//!    `young-daly-adaptive`, which estimates per-site MTBF from observed
//!    failure interarrivals and is never told the fault model. Gate:
//!    within 10% of the oracle's wasted + checkpoint-overhead compute.
//!
//! Results go to `BENCH_adaptive.json` (machine-readable; consumed by
//! CI) in the working directory; tables follow the usual `--out` rules.

use std::fmt::Write as _;
use std::sync::Arc;

use gridsched_bench::{check, fmt, run, Cli, Table};
use gridsched_core::{ControlConfig, ReplicaThrottle, StrategyKind};
use gridsched_sim::telemetry::InstrumentValue;
use gridsched_sim::{
    CheckpointConfig, FaultConfig, FaultEvent, FaultKind, FaultTrace, GridSim, MetricsReport,
    SimConfig, Telemetry,
};
use gridsched_workload::Workload;

fn main() {
    let cli = Cli::parse();
    let workload = cli.workload();

    let throttle = throttle_face(&cli, &workload);
    let placement = placement_face(&cli, &workload);
    let young_daly = young_daly_face(&cli, &workload);

    let json = to_json(&cli, &throttle, &placement, &young_daly);
    if let Err(e) = std::fs::write("BENCH_adaptive.json", &json) {
        eprintln!("warning: could not write BENCH_adaptive.json: {e}");
    } else {
        println!("wrote BENCH_adaptive.json");
    }

    run_checks(&cli, &throttle, &placement, &young_daly);
}

/// One measured point of the throttle face-off.
struct ThrottlePoint {
    label: String,
    makespan_min: f64,
    wasted_s: f64,
    replicas_cancelled: u64,
}

struct ThrottleFace {
    uncapped: ThrottlePoint,
    knee: ThrottlePoint,
    /// `cap=1` with no site budget — the knee restricted to the one
    /// actuator the controller actually has. The fair waste target:
    /// the hand-tuned knee's extra site budget is outside the loop's
    /// actuation space.
    cap_only: ThrottlePoint,
    adaptive: ThrottlePoint,
}

/// Face 1: the adaptive replica throttle against the hand-tuned knee.
fn throttle_face(cli: &Cli, workload: &Arc<Workload>) -> ThrottleFace {
    let base = |w: &Arc<Workload>| {
        SimConfig::paper(w.clone(), StrategyKind::StorageAffinity).with_workers_per_site(4)
    };
    let measure = |config: &SimConfig, label: &str| {
        let r = run(cli, config);
        ThrottlePoint {
            label: label.to_string(),
            makespan_min: r.makespan_minutes,
            wasted_s: r.wasted_compute_s,
            replicas_cancelled: r.replicas_cancelled,
        }
    };
    let uncapped = measure(&base(workload), "uncapped");
    let knee = measure(
        &base(workload).with_replica_throttle(
            ReplicaThrottle::none()
                .with_replica_cap(1)
                .with_site_budget(2),
        ),
        "cap=1 site-budget=2 (hand-tuned knee)",
    );
    let cap_only = measure(
        &base(workload).with_replica_throttle(ReplicaThrottle::none().with_replica_cap(1)),
        "cap=1 (cap actuator only)",
    );
    let adaptive = measure(
        &base(workload).with_control(ControlConfig::none().with_adaptive_throttle()),
        "adaptive (no caps declared)",
    );

    let mut table = Table::new(
        "Ablation: adaptive replica throttle vs hand-tuned knee (storage affinity, 4 workers/site)",
        &[
            "configuration",
            "makespan_min",
            "wasted_compute_h",
            "replicas_cancelled",
        ],
    );
    for p in [&uncapped, &knee, &cap_only, &adaptive] {
        table.push_row(vec![
            p.label.clone(),
            fmt(p.makespan_min, 0),
            fmt(p.wasted_s / 3600.0, 1),
            p.replicas_cancelled.to_string(),
        ]);
    }
    table.emit(cli, "ablation_adaptive_throttle");
    ThrottleFace {
        uncapped,
        knee,
        cap_only,
        adaptive,
    }
}

struct PlacementFace {
    /// (strategy label, makespan) for every open-loop strategy.
    statics: Vec<(String, f64)>,
    best_static: (String, f64),
    best_static_tasks_lost: u64,
    adaptive_makespan: f64,
    adaptive_tasks_lost: u64,
    breaker_opens: u64,
    breaker_half_opens: u64,
}

/// The churn environment of the placement face-off: a mild uniform
/// background of independent crashes everywhere, plus a scripted
/// flaky-site storm — two sites suffer recurring crash episodes (three
/// waves of all-worker crashes every three hours). Episodes are
/// exactly the failure structure a circuit breaker exploits: a crash
/// at a flaky site *predicts more crashes there within minutes*, so
/// parking the site and probing after the storm wins, while the
/// memoryless background never rewards parking.
fn storm_faults(workers_per_site: usize) -> FaultConfig {
    const FLAKY_SITES: [usize; 2] = [2, 7];
    const FIRST_EPISODE_S: f64 = 1_800.0;
    const EPISODE_EVERY_S: f64 = 10_800.0;
    const EPISODES: usize = 24; // covers ~72h of sim time
    const WAVES: usize = 3;
    const WAVE_EVERY_S: f64 = 420.0;
    const DOWN_FOR_S: f64 = 360.0;
    let mut events = Vec::new();
    for episode in 0..EPISODES {
        let t0 = FIRST_EPISODE_S + episode as f64 * EPISODE_EVERY_S;
        for &site in &FLAKY_SITES {
            for wave in 0..WAVES {
                for worker in 0..workers_per_site {
                    let at_s = t0 + wave as f64 * WAVE_EVERY_S + worker as f64 * 30.0;
                    events.push(FaultEvent {
                        at_s,
                        kind: FaultKind::WorkerCrash { site, worker },
                    });
                    events.push(FaultEvent {
                        at_s: at_s + DOWN_FOR_S,
                        kind: FaultKind::WorkerRecover { site, worker },
                    });
                }
            }
        }
    }
    FaultConfig::none()
        .with_worker_faults(57_600.0, 600.0)
        .with_trace(FaultTrace::new(events))
}

/// Face 2: churn-aware placement + breakers against every static strategy
/// under the flaky-site storm.
fn placement_face(cli: &Cli, workload: &Arc<Workload>) -> PlacementFace {
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
    let make = |strategy: StrategyKind| {
        SimConfig::paper(workload.clone(), strategy)
            .with_workers_per_site(4)
            .with_faults(storm_faults(4))
    };
    let mut statics: Vec<(StrategyKind, MetricsReport)> = Vec::new();
    for strategy in strategies {
        statics.push((strategy, run(cli, &make(strategy))));
    }
    let (best_kind, best_report) = statics
        .iter()
        .min_by(|a, b| {
            a.1.makespan_minutes
                .partial_cmp(&b.1.makespan_minutes)
                .expect("makespans are finite")
        })
        .map(|(s, r)| (*s, r))
        .expect("non-empty strategy set");

    // The closed loop rides the *best* static strategy — the point is
    // that it must not give that strategy's makespan back while it
    // learns, parks and probes.
    let adaptive_config = make(best_kind).with_control(
        ControlConfig::none()
            .with_churn_placement()
            .with_tick_s(120.0),
    );
    let adaptive = run(cli, &adaptive_config);
    // One extra instrumented single-replicate run for the controller
    // counters (telemetry is provably inert, so this does not perturb
    // the measurement — it *is* the measurement, observed).
    let telemetry = Telemetry::enabled();
    let _ = GridSim::new(adaptive_config.clone())
        .with_telemetry(telemetry.clone())
        .run();
    let counter = |name: &str| {
        telemetry
            .snapshot()
            .into_iter()
            .find(|s| s.name == name)
            .map_or(0, |s| match s.value {
                InstrumentValue::Counter { value } => value,
                _ => 0,
            })
    };
    let breaker_opens = counter("control.breaker.opens");
    let breaker_half_opens = counter("control.breaker.half_opens");

    let mut table = Table::new(
        "Ablation: churn-aware placement + breakers under a flaky-site storm",
        &[
            "configuration",
            "makespan_min",
            "tasks_lost",
            "wasted_h",
            "worker_avail",
        ],
    );
    for (s, r) in &statics {
        table.push_row(vec![
            s.to_string(),
            fmt(r.makespan_minutes, 0),
            r.tasks_lost.to_string(),
            fmt(r.wasted_compute_s / 3600.0, 1),
            fmt(r.mean_worker_availability(), 4),
        ]);
    }
    table.push_row(vec![
        format!("{best_kind}+placement (adaptive)"),
        fmt(adaptive.makespan_minutes, 0),
        adaptive.tasks_lost.to_string(),
        fmt(adaptive.wasted_compute_s / 3600.0, 1),
        fmt(adaptive.mean_worker_availability(), 4),
    ]);
    table.emit(cli, "ablation_adaptive_placement");
    println!(
        "breakers: {breaker_opens} opened, {breaker_half_opens} half-open probes \
         (instrumented single replicate)"
    );

    PlacementFace {
        statics: statics
            .iter()
            .map(|(s, r)| (s.to_string(), r.makespan_minutes))
            .collect(),
        best_static: (best_kind.to_string(), best_report.makespan_minutes),
        best_static_tasks_lost: best_report.tasks_lost,
        adaptive_makespan: adaptive.makespan_minutes,
        adaptive_tasks_lost: adaptive.tasks_lost,
        breaker_opens,
        breaker_half_opens,
    }
}

struct YoungDalyPoint {
    makespan_min: f64,
    /// Re-executed compute plus checkpoint overhead — everything the run
    /// burned that was not first-attempt useful work.
    burned_s: f64,
    checkpoints_written: u64,
}

struct YoungDalyFace {
    oracle: YoungDalyPoint,
    adaptive: YoungDalyPoint,
}

/// Face 3: self-tuning Young–Daly against the declared-MTBF oracle.
fn young_daly_face(cli: &Cli, workload: &Arc<Workload>) -> YoungDalyFace {
    let faults = || FaultConfig::none().with_worker_faults(7_200.0, 1_200.0);
    let measure = |config: &SimConfig| {
        let r = run(cli, config);
        YoungDalyPoint {
            makespan_min: r.makespan_minutes,
            burned_s: r.wasted_compute_s + r.checkpoint_overhead_s,
            checkpoints_written: r.checkpoints_written,
        }
    };
    let oracle = measure(
        &SimConfig::paper(workload.clone(), StrategyKind::Rest2)
            .with_faults(faults())
            .with_checkpointing(CheckpointConfig::young_daly()),
    );
    let adaptive = measure(
        &SimConfig::paper(workload.clone(), StrategyKind::Rest2)
            .with_faults(faults())
            .with_checkpointing(CheckpointConfig::young_daly_adaptive())
            .with_control(
                ControlConfig::none()
                    .with_adaptive_checkpoint()
                    .with_tick_s(300.0),
            ),
    );

    let mut table = Table::new(
        "Ablation: self-tuning Young-Daly vs declared-MTBF oracle (rest.2, worker MTBF 7200s)",
        &[
            "configuration",
            "makespan_min",
            "burned_compute_h",
            "checkpoints",
        ],
    );
    for (label, p) in [
        ("young-daly (oracle, MTBF declared)", &oracle),
        ("young-daly-adaptive (MTBF estimated)", &adaptive),
    ] {
        table.push_row(vec![
            label.to_string(),
            fmt(p.makespan_min, 0),
            fmt(p.burned_s / 3600.0, 1),
            p.checkpoints_written.to_string(),
        ]);
    }
    table.emit(cli, "ablation_adaptive_young_daly");
    YoungDalyFace { oracle, adaptive }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else if num > 0.0 {
        f64::INFINITY
    } else {
        1.0
    }
}

fn run_checks(cli: &Cli, t: &ThrottleFace, p: &PlacementFace, yd: &YoungDalyFace) {
    // Face 1: the loop must land at (or beat) the hand-tuned knee —
    // waste within the dead band of the knee's, makespan at least as
    // good. (The cap-only row is context: the controller deliberately
    // probes above the pure-waste floor whenever the ratio sits below
    // the low water, trading bounded waste for makespan.)
    check(
        cli,
        "adaptive throttle cuts speculative waste at least 3x below uncapped",
        t.adaptive.wasted_s <= t.uncapped.wasted_s / 3.0,
    );
    check(
        cli,
        "adaptive throttle matches the hand-tuned knee's waste (within 10%)",
        t.adaptive.wasted_s <= t.knee.wasted_s * 1.10,
    );
    check(
        cli,
        "adaptive throttle beats the hand-tuned knee's makespan",
        t.adaptive.makespan_min < t.knee.makespan_min,
    );
    check(
        cli,
        "adaptive throttle's makespan is no worse than uncapped (within 5%)",
        t.adaptive.makespan_min <= t.uncapped.makespan_min * 1.05,
    );

    // Face 2: the placement loop on the best static strategy.
    let mean_static = p.statics.iter().map(|(_, m)| m).sum::<f64>() / p.statics.len() as f64;
    check(
        cli,
        "placement loop beats the best static strategy under the storm",
        p.adaptive_makespan < p.best_static.1,
    );
    check(
        cli,
        "placement loop loses fewer task attempts than the best static",
        p.adaptive_tasks_lost < p.best_static_tasks_lost,
    );
    check(
        cli,
        "placement loop beats the static field's mean makespan",
        p.adaptive_makespan < mean_static,
    );
    check(
        cli,
        "circuit breakers actually tripped under the storm",
        p.breaker_opens > 0,
    );
    check(
        cli,
        "tripped breakers cooled into half-open probes",
        p.breaker_half_opens > 0,
    );
    check(
        cli,
        "the placement face sweeps all 8 static strategies",
        p.statics.len() == 8,
    );

    // Face 3: the estimator must approach the declared-MTBF oracle.
    check(
        cli,
        "self-tuned young-daly burns within 10% of the oracle's compute",
        yd.adaptive.burned_s <= yd.oracle.burned_s * 1.10,
    );
    check(
        cli,
        "self-tuned young-daly actually writes checkpoints (no MTBF declared)",
        yd.adaptive.checkpoints_written > 0,
    );
}

fn to_json(cli: &Cli, t: &ThrottleFace, p: &PlacementFace, yd: &YoungDalyFace) -> String {
    let mut out = String::new();
    let point = |p: &ThrottlePoint| {
        format!(
            "{{\"label\": \"{}\", \"makespan_min\": {:.3}, \"wasted_h\": {:.4}, \
             \"replicas_cancelled\": {}}}",
            p.label,
            p.makespan_min,
            p.wasted_s / 3600.0,
            p.replicas_cancelled
        )
    };
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"schema\": \"gridsched.ablation_adaptive.v1\",");
    let _ = writeln!(out, "  \"quick\": {},", cli.quick);
    let _ = writeln!(
        out,
        "  \"seeds\": [{}],",
        cli.seeds
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(", ")
    );
    let _ = writeln!(out, "  \"throttle\": {{");
    let _ = writeln!(out, "    \"uncapped\": {},", point(&t.uncapped));
    let _ = writeln!(out, "    \"hand_tuned_knee\": {},", point(&t.knee));
    let _ = writeln!(out, "    \"cap_only_knee\": {},", point(&t.cap_only));
    let _ = writeln!(out, "    \"adaptive\": {},", point(&t.adaptive));
    let _ = writeln!(
        out,
        "    \"adaptive_vs_knee_makespan\": {:.4},",
        ratio(t.adaptive.makespan_min, t.knee.makespan_min)
    );
    let _ = writeln!(
        out,
        "    \"adaptive_vs_knee_wasted\": {:.4},",
        ratio(t.adaptive.wasted_s, t.knee.wasted_s)
    );
    let _ = writeln!(
        out,
        "    \"waste_reduction_vs_uncapped\": {:.2},",
        ratio(t.uncapped.wasted_s, t.adaptive.wasted_s)
    );
    let knee_matched = t.adaptive.wasted_s <= t.knee.wasted_s * 1.10
        && t.adaptive.makespan_min <= t.knee.makespan_min * 1.10;
    let _ = writeln!(out, "    \"knee_matched\": {knee_matched}");
    let _ = writeln!(out, "  }},");
    let _ = writeln!(out, "  \"placement\": {{");
    let _ = writeln!(out, "    \"static\": [");
    for (i, (s, m)) in p.statics.iter().enumerate() {
        let _ = writeln!(
            out,
            "      {{\"strategy\": \"{s}\", \"makespan_min\": {m:.3}}}{}",
            if i + 1 < p.statics.len() { "," } else { "" }
        );
    }
    let _ = writeln!(out, "    ],");
    let _ = writeln!(
        out,
        "    \"best_static\": {{\"strategy\": \"{}\", \"makespan_min\": {:.3}, \
         \"tasks_lost\": {}}},",
        p.best_static.0, p.best_static.1, p.best_static_tasks_lost
    );
    let _ = writeln!(
        out,
        "    \"adaptive\": {{\"base\": \"{}\", \"makespan_min\": {:.3}, \
         \"tasks_lost\": {}}},",
        p.best_static.0, p.adaptive_makespan, p.adaptive_tasks_lost
    );
    let _ = writeln!(
        out,
        "    \"adaptive_vs_best_static\": {:.4},",
        ratio(p.adaptive_makespan, p.best_static.1)
    );
    let _ = writeln!(
        out,
        "    \"adaptive_beats_best_static\": {},",
        p.adaptive_makespan < p.best_static.1
    );
    let _ = writeln!(out, "    \"breaker_opens\": {},", p.breaker_opens);
    let _ = writeln!(out, "    \"breaker_half_opens\": {}", p.breaker_half_opens);
    let _ = writeln!(out, "  }},");
    let _ = writeln!(out, "  \"young_daly\": {{");
    let _ = writeln!(
        out,
        "    \"oracle\": {{\"makespan_min\": {:.3}, \"burned_h\": {:.4}, \
         \"checkpoints\": {}}},",
        yd.oracle.makespan_min,
        yd.oracle.burned_s / 3600.0,
        yd.oracle.checkpoints_written
    );
    let _ = writeln!(
        out,
        "    \"adaptive\": {{\"makespan_min\": {:.3}, \"burned_h\": {:.4}, \
         \"checkpoints\": {}}},",
        yd.adaptive.makespan_min,
        yd.adaptive.burned_s / 3600.0,
        yd.adaptive.checkpoints_written
    );
    let _ = writeln!(
        out,
        "    \"adaptive_vs_oracle_burned\": {:.4}",
        ratio(yd.adaptive.burned_s, yd.oracle.burned_s)
    );
    let _ = writeln!(out, "  }}");
    let _ = writeln!(out, "}}");
    out
}
