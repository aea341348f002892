//! `perf_scale` — the hot-path scaling baseline.
//!
//! Sweeps the worker count across decades (10² → 10⁵ by default) over the
//! paper's six algorithms with the production `incremental` scheduler
//! path, measuring **wall time** and **simulation events per second**, and
//! additionally runs the paper-complexity `naive` path at a comparison
//! point to quantify the speed-up of the incremental indexes.
//!
//! Two further sections target the known large-grid pathologies:
//!
//! * a **throttled storage-affinity** run at every sweep point
//!   (`--replica-cap`/`--site-replica-budget` semantics; cap 4, site
//!   budget 256 — chosen so the 10²–10³ makespans stay within the
//!   seed-to-seed noise of uncapped) — the replica-storm mitigation whose
//!   10⁵-worker tail this file regresses against;
//! * a **sites × workers sweep** at a fixed worker count (S ∈ 5…160),
//!   exposing any `O(S)` per-decision term (sufferage best-two refresh,
//!   per-site rank maintenance) that the fixed-10-sites sweep cannot see —
//!   since the sparse-propagation work landed, wall time must stay ~flat
//!   in S, and `--check` rejects super-linear growth.
//!
//! Configurations the worker sweep already measured are **not re-run** for
//! the sites sweep (the S = 10 points reuse the worker-sweep rows), and
//! `--check` rejects duplicate `(workers, sites, strategy, mode,
//! throttle)` keys in the emitted JSON.
//!
//! Results go to `BENCH_scale.json` (machine-readable, one file every
//! future PR can regress against) and to stdout as a table.
//!
//! ```text
//! perf_scale [--smoke] [--check] [--out FILE] [--max-workers N] [--seed N]
//! ```
//!
//! * `--smoke` — tiny sweep (10²/4·10² workers) for CI;
//! * `--check` — exit non-zero unless every run completed with a positive
//!   wall time and event count, the sites sweep has at least 3 points and
//!   covers xsufferage at the worker-sweep site count, the incremental
//!   path is ≥ 5× faster than naive at the comparison point, (at the
//!   full 10⁵ scale) the throttled storage-affinity run dispatches ≤ 1/10
//!   of the uncapped run's events, no duplicate run key was emitted, no
//!   sites-sweep strategy shows super-linear wall-time growth in S, the
//!   traced re-run dispatches bit-identical events (telemetry inertness),
//!   repeat runs fold byte-identical windowed event digests (dispatch
//!   *order* determinism, not just the count),
//!   the instrumented complexity sweep confirms the site ranks touched
//!   per membership change stay flat in S and solver touched-flows track
//!   concurrency, and the total
//!   disabled-telemetry wall time stays within budget of the previous
//!   `BENCH_scale.json` (3% full, 1.5× smoke — CI runners are noisy);
//! * `--max-workers N` — truncate the sweep (e.g. `--max-workers 10000`);
//! * `--out FILE` — where to write the JSON (default `BENCH_scale.json`).
//!
//! The workload scales with the grid: `tasks = 2 × workers` over a
//! thinned Coadd strip (≈12 files/task) so the sweep stays scheduler- and
//! transfer-bound instead of drowning in per-task flow events, and the
//! storage capacity covers the file universe (cache-churn costs are
//! covered by `fig4_capacity` / the eviction tests).

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use gridsched_bench::Table;
use gridsched_core::{EvalMode, ReplicaThrottle, StrategyKind};
use gridsched_sim::telemetry::InstrumentValue;
use gridsched_sim::{GridSim, SimConfig, Telemetry};
use gridsched_workload::coadd::CoaddConfig;
use gridsched_workload::Workload;

const SITES: usize = 10;
/// The throttled storage-affinity configuration the bench tracks.
const THROTTLE_CAP: u32 = 4;
const THROTTLE_SITE_BUDGET: u32 = 256;

fn bench_throttle() -> ReplicaThrottle {
    ReplicaThrottle::none()
        .with_replica_cap(THROTTLE_CAP)
        .with_site_budget(THROTTLE_SITE_BUDGET)
}

struct Run {
    workers: usize,
    sites: usize,
    strategy: StrategyKind,
    mode: EvalMode,
    /// Replica-throttle label (`"none"` for unthrottled runs).
    throttle: String,
    tasks: usize,
    wall_s: f64,
    events: u64,
    events_per_s: f64,
    makespan_min: f64,
    completed: u64,
}

struct Args {
    smoke: bool,
    check: bool,
    out: PathBuf,
    max_workers: Option<usize>,
    seed: u64,
}

fn parse_args() -> Args {
    let mut args = Args {
        smoke: false,
        check: false,
        out: PathBuf::from("BENCH_scale.json"),
        max_workers: None,
        seed: 0,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--smoke" => args.smoke = true,
            "--check" => args.check = true,
            "--out" => {
                args.out = PathBuf::from(iter.next().unwrap_or_else(|| usage("--out needs a path")))
            }
            "--max-workers" => {
                let v = iter
                    .next()
                    .unwrap_or_else(|| usage("--max-workers needs a number"));
                args.max_workers = Some(v.parse().unwrap_or_else(|_| usage("bad --max-workers")));
            }
            "--seed" => {
                let v = iter
                    .next()
                    .unwrap_or_else(|| usage("--seed needs a number"));
                args.seed = v.parse().unwrap_or_else(|_| usage("bad --seed"));
            }
            "--help" | "-h" => usage("help requested"),
            other => usage(&format!("unknown flag `{other}`")),
        }
    }
    args
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "error: {msg}\nusage: perf_scale [--smoke] [--check] [--out FILE] \
         [--max-workers N] [--seed N]"
    );
    std::process::exit(2);
}

/// A thinned Coadd strip: same spatial-sharing structure, ~12 files/task.
fn scale_workload(tasks: u32, seed: u64) -> Arc<Workload> {
    let mut cfg = CoaddConfig::paper_6000();
    cfg.tasks = tasks;
    cfg.seed = seed;
    cfg.window_min = 4;
    cfg.window_max = 8;
    cfg.layers_mean = 3.0;
    cfg.layers_std = 0.5;
    cfg.layers_min = 2;
    cfg.layers_max = 4;
    Arc::new(cfg.generate())
}

fn build_config(
    workload: &Arc<Workload>,
    workers: usize,
    sites: usize,
    strategy: StrategyKind,
    mode: EvalMode,
    throttle: Option<ReplicaThrottle>,
    seed: u64,
) -> SimConfig {
    let mut config = SimConfig::paper(Arc::clone(workload), strategy);
    // The paper topology has 9 MANs × 10 sites; the top of the sites sweep
    // (S = 160) needs a wider grid. Widening changes the generated link
    // draws, so it is applied only where unavoidable — every S ≤ 90 row
    // keeps the paper topology and stays bit-comparable across PRs.
    if sites > config.topology.site_count() {
        config.topology.sites_per_man = sites.div_ceil(config.topology.mans);
    }
    let mut config = config
        .with_sites(sites)
        .with_workers_per_site((workers / sites).max(1))
        .with_capacity(workload.file_count().max(1))
        .with_seed(seed)
        .with_eval_mode(mode);
    if let Some(throttle) = throttle {
        config = config.with_replica_throttle(throttle);
    }
    config
}

fn run_once(
    workload: &Arc<Workload>,
    workers: usize,
    sites: usize,
    strategy: StrategyKind,
    mode: EvalMode,
    throttle: Option<ReplicaThrottle>,
    seed: u64,
) -> Run {
    let config = build_config(workload, workers, sites, strategy, mode, throttle, seed);
    let started = Instant::now();
    let report = GridSim::new(config).run();
    let wall_s = started.elapsed().as_secs_f64();
    Run {
        workers,
        sites,
        strategy,
        mode,
        throttle: throttle.map_or_else(|| "none".to_string(), |t| t.summary()),
        tasks: workload.task_count(),
        wall_s,
        events: report.events_dispatched,
        events_per_s: report.events_dispatched as f64 / wall_s.max(1e-9),
        makespan_min: report.makespan_minutes,
        completed: report.tasks_completed,
    }
}

fn main() {
    let args = parse_args();
    let sweep: Vec<usize> = if args.smoke {
        vec![100, 400]
    } else {
        vec![100, 1_000, 10_000, 100_000]
    }
    .into_iter()
    .filter(|&w| args.max_workers.is_none_or(|m| w <= m))
    .collect();
    if sweep.is_empty() {
        usage("--max-workers filtered out every sweep point");
    }
    // The naive-vs-incremental comparison point: the largest sweep scale at
    // which the O(T·I)-per-decision path is still tolerable to run.
    let compare_at = if args.smoke {
        *sweep.last().expect("non-empty")
    } else {
        *sweep
            .iter()
            .filter(|&&w| w <= 10_000)
            .max()
            .expect("non-empty")
    };
    // The sites × workers sweep: fixed worker count, varying site count.
    let (sites_sweep_workers, sites_sweep): (usize, Vec<usize>) = if args.smoke {
        (400, vec![2, 5, 10])
    } else {
        (10_000, vec![5, 10, 20, 40, 80, 160])
    };
    let sites_sweep_workers = args
        .max_workers
        .map_or(sites_sweep_workers, |m| sites_sweep_workers.min(m));

    let mut runs: Vec<Run> = Vec::new();
    let mut table = Table::new(
        "perf_scale: wall time per full simulation (incremental path)",
        &[
            "workers",
            "sites",
            "tasks",
            "algorithm",
            "mode",
            "throttle",
            "wall_s",
            "events",
            "events/s",
        ],
    );
    for &workers in &sweep {
        let workload = scale_workload((workers * 2).max(200) as u32, args.seed);
        for strategy in StrategyKind::PAPER_SET {
            let run = run_once(
                &workload,
                workers,
                SITES,
                strategy,
                EvalMode::Incremental,
                None,
                args.seed,
            );
            eprintln!(
                "  {:>6} workers  {:<16} {:>8.2}s  {:>10} events",
                workers,
                strategy.to_string(),
                run.wall_s,
                run.events
            );
            push_row(&mut table, &run);
            runs.push(run);
        }
        // The replica-throttle variant of storage affinity at every scale:
        // the small grids prove the cap stays within noise of uncapped,
        // the large ones show the storm tail cut.
        let run = run_once(
            &workload,
            workers,
            SITES,
            StrategyKind::StorageAffinity,
            EvalMode::Incremental,
            Some(bench_throttle()),
            args.seed,
        );
        eprintln!(
            "  {:>6} workers  {:<16} {:>8.2}s  {:>10} events  (throttled {})",
            workers, "storage-affinity", run.wall_s, run.events, run.throttle
        );
        push_row(&mut table, &run);
        runs.push(run);
        // The comparison runs ride on the same workload instance.
        if workers == compare_at {
            for strategy in [StrategyKind::Rest, StrategyKind::Combined2] {
                let run = run_once(
                    &workload,
                    workers,
                    SITES,
                    strategy,
                    EvalMode::Naive,
                    None,
                    args.seed,
                );
                eprintln!(
                    "  {:>6} workers  {:<16} {:>8.2}s  (naive path)",
                    workers,
                    strategy.to_string(),
                    run.wall_s
                );
                push_row(&mut table, &run);
                runs.push(run);
            }
        }
    }

    // Sites × workers: the per-decision cost used to carry O(S) terms
    // (sufferage best-two refresh, per-site rank membership broadcasts)
    // that a fixed site count cannot expose; the sparse-propagation path
    // must keep wall time ~flat here. Storage affinity runs throttled —
    // the point is the O(S) scaling, not yet another storm measurement.
    // Configurations the worker sweep already measured (the S = 10 points)
    // reuse that measurement instead of re-running: the sweep reader joins
    // on the (workers, sites, strategy, mode, throttle) key, which `--check`
    // keeps unique.
    let sites_workload = scale_workload((sites_sweep_workers * 2).max(200) as u32, args.seed);
    for &sites in &sites_sweep {
        for (strategy, throttle) in [
            (StrategyKind::StorageAffinity, Some(bench_throttle())),
            (StrategyKind::Combined2, None),
            (StrategyKind::Sufferage, None),
        ] {
            let throttle_label =
                throttle.map_or_else(|| "none".to_string(), |t: ReplicaThrottle| t.summary());
            if runs.iter().any(|r| {
                run_key(r)
                    == (
                        sites_sweep_workers,
                        sites,
                        strategy,
                        EvalMode::Incremental,
                        throttle_label.clone(),
                    )
            }) {
                eprintln!(
                    "  {:>6} workers  {:<16} (reusing worker-sweep row, {} sites)",
                    sites_sweep_workers,
                    strategy.to_string(),
                    sites
                );
                continue;
            }
            let run = run_once(
                &sites_workload,
                sites_sweep_workers,
                sites,
                strategy,
                EvalMode::Incremental,
                throttle,
                args.seed,
            );
            eprintln!(
                "  {:>6} workers  {:<16} {:>8.2}s  {:>10} events  ({} sites)",
                sites_sweep_workers,
                strategy.to_string(),
                run.wall_s,
                run.events,
                sites
            );
            push_row(&mut table, &run);
            runs.push(run);
        }
    }
    print!("{}", table.render());

    // Speed-ups at the comparison point.
    let mut speedups: Vec<(StrategyKind, f64, f64, f64)> = Vec::new();
    for strategy in [StrategyKind::Rest, StrategyKind::Combined2] {
        let wall = |mode: EvalMode| {
            runs.iter()
                .find(|r| {
                    r.workers == compare_at
                        && r.sites == SITES
                        && r.strategy == strategy
                        && r.mode == mode
                        && r.throttle == "none"
                })
                .map(|r| r.wall_s)
        };
        if let (Some(naive), Some(inc)) = (wall(EvalMode::Naive), wall(EvalMode::Incremental)) {
            let speedup = naive / inc.max(1e-9);
            println!(
                "speedup @ {compare_at} workers ({strategy}): naive {naive:.2}s / \
                 incremental {inc:.2}s = {speedup:.1}x"
            );
            speedups.push((strategy, naive, inc, speedup));
        }
    }

    // Storm mitigation at the largest scale where both variants ran.
    let storm = runs
        .iter()
        .filter(|r| {
            r.strategy == StrategyKind::StorageAffinity && r.sites == SITES && r.throttle == "none"
        })
        .map(|r| r.workers)
        .max()
        .and_then(|w| {
            let events = |throttled: bool| {
                runs.iter()
                    .find(|r| {
                        r.workers == w
                            && r.sites == SITES
                            && r.strategy == StrategyKind::StorageAffinity
                            && (r.throttle != "none") == throttled
                    })
                    .map(|r| (r.events, r.wall_s, r.makespan_min))
            };
            Some((w, events(false)?, events(true)?))
        });
    if let Some((w, (ue, uw, um), (te, tw, tm))) = storm {
        println!(
            "replica throttle @ {w} workers: events {ue} -> {te} ({:.1}x), wall \
             {uw:.2}s -> {tw:.2}s, makespan {um:.0} -> {tm:.0} min",
            ue as f64 / te.max(1) as f64
        );
    }

    // ── Instrumented complexity sweep ───────────────────────────────────
    // Re-runs combined2 at every site count with telemetry live and reads
    // the hot-path instruments back. Instrument values count *decisions*,
    // not time, so they are bit-deterministic for a given seed and `--check`
    // can assert the complexity claims exactly, immune to machine noise:
    //
    //   * a rank-membership change touches O(1) site ranks — the sites
    //     holding the task's files — independent of S (the sparse
    //     site-rank claim);
    //   * the max–min solver visits exactly the concurrent flows per
    //     solve, so its per-solve maximum dominates the sampled in-flight
    //     peak — work tracks concurrency, not flow history.
    //
    // The worker count is modest: the claims are about per-decision ratios,
    // which do not need the 10⁴-worker timing scale.
    let complexity_workers = if args.smoke { 400 } else { 2_000 };
    let complexity_workload = scale_workload((complexity_workers * 2).max(200) as u32, args.seed);
    let mut complexity: Vec<ComplexityPoint> = Vec::new();
    for &sites in &sites_sweep {
        let config = build_config(
            &complexity_workload,
            complexity_workers,
            sites,
            StrategyKind::Combined2,
            EvalMode::Incremental,
            None,
            args.seed,
        )
        .with_probe_interval(600.0);
        let telemetry = Telemetry::enabled();
        let report = GridSim::new(config).with_telemetry(telemetry.clone()).run();
        let mut picks = 0;
        let mut changes = 0;
        let mut overlap_sites = (0u64, 0u64); // (count, sum)
        let mut recomputes = 0;
        let mut touched = (0u64, 0u64, 0u64); // (count, sum, max)
        for snap in telemetry.snapshot() {
            match (snap.name, &snap.value) {
                ("scheduler.rank.picks", InstrumentValue::Counter { value }) => picks = *value,
                ("scheduler.rank.membership_changes", InstrumentValue::Counter { value }) => {
                    changes = *value;
                }
                ("scheduler.rank.overlap_sites", InstrumentValue::Histogram { count, sum, .. }) => {
                    overlap_sites = (*count, *sum)
                }
                ("net.solver.recomputes", InstrumentValue::Counter { value }) => {
                    recomputes = *value;
                }
                (
                    "net.solver.touched_flows",
                    InstrumentValue::Histogram {
                        count, sum, max, ..
                    },
                ) => touched = (*count, *sum, *max),
                _ => {}
            }
        }
        let probe_max_flows = telemetry
            .probes()
            .iter()
            .map(|p| p.in_flight_flows)
            .max()
            .unwrap_or(0);
        let point = ComplexityPoint {
            sites,
            events: report.events_dispatched,
            picks,
            changes,
            overlap_sites_count: overlap_sites.0,
            overlap_sites_sum: overlap_sites.1,
            recomputes,
            touched_count: touched.0,
            touched_sum: touched.1,
            touched_max: touched.2,
            probe_max_flows,
        };
        eprintln!(
            "  complexity @ {complexity_workers} workers / {sites:>3} sites: \
             {:.3} site ranks/membership change ({changes} changes, {picks} picks), \
             {:.1} touched flows/recompute (max {}, sampled peak {probe_max_flows})",
            point.overlap_sites_mean(),
            point.touched_mean(),
            point.touched_max,
        );
        complexity.push(point);
    }

    // ── Telemetry overhead ──────────────────────────────────────────────
    // The worker-sweep rows time the *disabled* path (one branch per
    // instrument site). This section re-runs the naive-comparison config
    // with every instrument, span and probe recording live, so the cost of
    // turning telemetry on is a published number — and `--check` asserts
    // the traced run dispatched bit-identical events (inertness at bench
    // scale, deterministic and noise-free).
    let overhead = {
        let workload = scale_workload((compare_at * 2).max(200) as u32, args.seed);
        let config = build_config(
            &workload,
            compare_at,
            SITES,
            StrategyKind::Combined2,
            EvalMode::Incremental,
            None,
            args.seed,
        )
        .with_probe_interval(600.0);
        let started = Instant::now();
        let report = GridSim::new(config)
            .with_telemetry(Telemetry::enabled())
            .run();
        let traced_wall_s = started.elapsed().as_secs_f64();
        let disabled = runs
            .iter()
            .find(|r| {
                r.workers == compare_at
                    && r.sites == SITES
                    && r.strategy == StrategyKind::Combined2
                    && r.mode == EvalMode::Incremental
                    && r.throttle == "none"
            })
            .expect("the worker sweep always measures combined2 at the comparison point");
        println!(
            "telemetry overhead @ {compare_at} workers (combined2): disabled \
             {:.2}s -> traced {traced_wall_s:.2}s ({:+.1}%)",
            disabled.wall_s,
            (traced_wall_s / disabled.wall_s.max(1e-9) - 1.0) * 100.0
        );
        (
            traced_wall_s,
            disabled.wall_s,
            report.events_dispatched,
            disabled.events,
        )
    };

    // ── Digest determinism witness ──────────────────────────────────────
    // Repeats a modest combined2 run twice with the windowed event-stream
    // digest folding and compares the files byte-for-byte. The traced
    // event-count equality above cannot see a *reordering* that keeps the
    // count; the digest hashes every dispatched event in order, so any
    // nondeterminism in the hot path flips it.
    let digest_identical = {
        let workload = scale_workload(800, args.seed);
        let dir = std::env::temp_dir();
        let paths: Vec<PathBuf> = ["a", "b"]
            .iter()
            .map(|tag| {
                dir.join(format!(
                    "perf-scale-digest-{}-{tag}.jsonl",
                    std::process::id()
                ))
            })
            .collect();
        for p in &paths {
            let config = build_config(
                &workload,
                400,
                SITES,
                StrategyKind::Combined2,
                EvalMode::Incremental,
                None,
                args.seed,
            )
            .with_digest_out(p.to_str().expect("utf-8 temp path"));
            let _ = GridSim::new(config).run();
        }
        let bytes: Vec<Vec<u8>> = paths
            .iter()
            .map(|p| std::fs::read(p).expect("digest file written"))
            .collect();
        for p in &paths {
            let _ = std::fs::remove_file(p);
        }
        let identical = bytes[0] == bytes[1];
        println!(
            "digest witness @ 400 workers (combined2): repeat runs {}",
            if identical {
                "byte-identical"
            } else {
                "DIVERGED"
            }
        );
        identical
    };

    let total_wall_s: f64 = runs.iter().map(|r| r.wall_s).sum();
    // Read the previous baseline *before* overwriting it: the regression
    // guard compares like-for-like (same sweep shape, same seed) totals.
    let baseline = std::fs::read_to_string(&args.out)
        .ok()
        .and_then(|s| parse_baseline(&s));

    let json = to_json(
        &runs,
        &speedups,
        &complexity,
        overhead,
        digest_identical,
        total_wall_s,
        &sweep,
        &sites_sweep,
        compare_at,
        &args,
    );
    if let Err(e) = std::fs::write(&args.out, json) {
        eprintln!("error: could not write {}: {e}", args.out.display());
        std::process::exit(1);
    }
    println!("wrote {}", args.out.display());

    if args.check {
        let mut ok = true;
        for r in &runs {
            if r.completed != r.tasks as u64 {
                eprintln!(
                    "CHECK FAIL: {} @ {} workers / {} sites ({}) completed {}/{} tasks",
                    r.strategy, r.workers, r.sites, r.throttle, r.completed, r.tasks
                );
                ok = false;
            }
            if !(r.wall_s > 0.0 && r.events > 0) {
                eprintln!(
                    "CHECK FAIL: {} @ {} workers / {} sites ({}) recorded {}s wall, {} events",
                    r.strategy, r.workers, r.sites, r.throttle, r.wall_s, r.events
                );
                ok = false;
            }
        }
        if sites_sweep.len() < 3 {
            eprintln!(
                "CHECK FAIL: sites sweep has {} points, needs at least 3",
                sites_sweep.len()
            );
            ok = false;
        }
        // The sites sweep reuses the worker-sweep rows at the overlapping
        // site count, so an xsufferage row must exist there.
        if runs
            .iter()
            .any(|r| r.sites == SITES && r.strategy == StrategyKind::Sufferage)
        {
            println!("CHECK PASS: xsufferage row at the worker-sweep site count ({SITES})");
        } else {
            eprintln!("CHECK FAIL: no xsufferage row at the worker-sweep site count ({SITES})");
            ok = false;
        }
        // One row per configuration: the sites sweep must reuse the
        // worker-sweep measurements instead of re-running (and re-timing)
        // identical configs.
        let mut seen = std::collections::HashSet::new();
        for r in &runs {
            if !seen.insert(run_key(r)) {
                eprintln!(
                    "CHECK FAIL: duplicate run key {} @ {} workers / {} sites ({}, {})",
                    r.strategy, r.workers, r.sites, r.mode, r.throttle
                );
                ok = false;
            }
        }
        if seen.len() == runs.len() {
            println!("CHECK PASS: all {} run keys unique", runs.len());
        }
        // Sparse per-site propagation: wall time must not grow
        // super-linearly in S at fixed workers (it should be ~flat; the
        // linear bound leaves headroom for fixed per-site costs and timing
        // noise). Sub-50ms anchors are skipped — smoke-scale wall clocks
        // are dominated by noise.
        for (strategy, throttle_is_none) in [
            (StrategyKind::StorageAffinity, false),
            (StrategyKind::Combined2, true),
            (StrategyKind::Sufferage, true),
        ] {
            let mut points: Vec<(usize, f64)> = runs
                .iter()
                .filter(|r| {
                    r.workers == sites_sweep_workers
                        && r.strategy == strategy
                        && r.mode == EvalMode::Incremental
                        && (r.throttle == "none") == throttle_is_none
                        && sites_sweep.contains(&r.sites)
                })
                .map(|r| (r.sites, r.wall_s))
                .collect();
            points.sort_unstable_by_key(|&(s, _)| s);
            let (Some(&(s_lo, w_lo)), Some(&(s_hi, w_hi))) = (points.first(), points.last()) else {
                continue;
            };
            if s_lo == s_hi {
                continue;
            }
            if w_lo < 0.05 {
                println!(
                    "CHECK SKIP: {strategy} sites-growth guard (anchor {w_lo:.3}s too \
                     noisy at {s_lo} sites)"
                );
                continue;
            }
            let ratio = w_hi / w_lo;
            let linear = s_hi as f64 / s_lo as f64;
            if ratio > linear {
                eprintln!(
                    "CHECK FAIL: {strategy} wall time grows super-linearly in sites: \
                     {w_lo:.2}s @ {s_lo} -> {w_hi:.2}s @ {s_hi} ({ratio:.1}x > {linear:.1}x)"
                );
                ok = false;
            } else {
                println!(
                    "CHECK PASS: {strategy} sites growth {ratio:.2}x over {s_lo}->{s_hi} \
                     sites (linear bound {linear:.1}x)"
                );
            }
        }
        let throttled_runs = runs.iter().filter(|r| r.throttle != "none").count();
        let sites_rows = runs.iter().filter(|r| r.sites != SITES).count();
        if throttled_runs == 0 {
            eprintln!("CHECK FAIL: no throttled storage-affinity run");
            ok = false;
        } else {
            println!("CHECK PASS: {throttled_runs} throttled storage-affinity runs");
        }
        if sites_rows == 0 {
            eprintln!("CHECK FAIL: sites sweep did not run");
            ok = false;
        } else {
            println!("CHECK PASS: sites sweep covered {sites_rows} configurations");
        }
        if args.smoke {
            // The smoke sweep is too small for the asymptotics to show,
            // and millisecond-scale wall-clock ratios flake on loaded CI
            // runners — only assert the comparison *ran* and both paths
            // simulated the same event count (same decisions).
            for &(strategy, _, _, _) in &speedups {
                let events = |mode: EvalMode| {
                    runs.iter()
                        .find(|r| {
                            r.workers == compare_at
                                && r.sites == SITES
                                && r.strategy == strategy
                                && r.mode == mode
                                && r.throttle == "none"
                        })
                        .map(|r| r.events)
                };
                if events(EvalMode::Naive) == events(EvalMode::Incremental) {
                    println!("CHECK PASS: {strategy} naive/incremental event counts match");
                } else {
                    eprintln!("CHECK FAIL: {strategy} naive/incremental event counts differ");
                    ok = false;
                }
            }
            if speedups.is_empty() {
                eprintln!("CHECK FAIL: naive comparison did not run");
                ok = false;
            }
        } else {
            for &(strategy, _, _, speedup) in &speedups {
                if speedup < 5.0 {
                    eprintln!("CHECK FAIL: {strategy} speedup {speedup:.1}x < 5x");
                    ok = false;
                } else {
                    println!("CHECK PASS: {strategy} incremental ≥ 5x naive");
                }
            }
            // The replica storm must be cut ≥ 10x in events at the largest
            // scale where the uncapped baseline ran.
            if let Some((w, (ue, _, _), (te, _, _))) = storm {
                if w >= 100_000 && te.saturating_mul(10) > ue {
                    eprintln!(
                        "CHECK FAIL: throttle cut events only {ue} -> {te} at {w} workers (< 10x)"
                    );
                    ok = false;
                } else {
                    println!(
                        "CHECK PASS: throttle events {ue} -> {te} at {w} workers ({:.1}x)",
                        ue as f64 / te.max(1) as f64
                    );
                }
            }
        }
        // Telemetry inertness at bench scale: the traced run must have
        // dispatched bit-identical events. Deterministic — no noise.
        let (_, _, traced_events, disabled_events) = overhead;
        if traced_events == disabled_events {
            println!("CHECK PASS: traced run events match disabled run ({traced_events})");
        } else {
            eprintln!(
                "CHECK FAIL: telemetry perturbed the run: {disabled_events} events \
                 disabled vs {traced_events} traced"
            );
            ok = false;
        }
        // The digest witnesses dispatch *order*, not just the count.
        if digest_identical {
            println!("CHECK PASS: repeat-run event digests byte-identical");
        } else {
            eprintln!("CHECK FAIL: repeat runs produced different event digests");
            ok = false;
        }
        // A rank-membership change reaches the cold rank once and the rank
        // of each site holding one of the task's files, so the mean number
        // of site ranks touched per change stays flat as S grows (it is
        // not normalised by S). Instrument counts are deterministic, so
        // this cannot flake.
        if let (Some(lo), Some(hi)) = (complexity.first(), complexity.last()) {
            if lo.sites != hi.sites {
                let (m_lo, m_hi) = (lo.overlap_sites_mean(), hi.overlap_sites_mean());
                if hi.changes == 0 || lo.changes == 0 {
                    eprintln!("CHECK FAIL: complexity sweep recorded no membership changes");
                    ok = false;
                } else if m_hi > 2.0 * m_lo + 0.5 {
                    eprintln!(
                        "CHECK FAIL: site ranks per membership change grow with sites: \
                         {m_lo:.3} @ {} -> {m_hi:.3} @ {} sites",
                        lo.sites, hi.sites
                    );
                    ok = false;
                } else {
                    println!(
                        "CHECK PASS: site ranks per membership change flat ({m_lo:.3} @ {} \
                         -> {m_hi:.3} @ {} sites)",
                        lo.sites, hi.sites
                    );
                }
            }
        }
        for p in &complexity {
            if p.overlap_sites_count != p.changes {
                eprintln!(
                    "CHECK FAIL: {} membership changes but {} site-count samples at {} sites",
                    p.changes, p.overlap_sites_count, p.sites
                );
                ok = false;
            }
        }
        // Solver work tracks concurrency: a solve runs whenever the route
        // multiset changes (same-route swaps skip it), and the in-flight
        // count can only rise through such a change, so the per-solve flow
        // count must reach at least the probe-sampled in-flight peak at
        // every site count.
        for p in &complexity {
            if p.recomputes == 0 {
                eprintln!("CHECK FAIL: no solver recomputes at {} sites", p.sites);
                ok = false;
            } else if p.touched_max < p.probe_max_flows {
                eprintln!(
                    "CHECK FAIL: solver touched-flow max {} below sampled in-flight \
                     peak {} at {} sites",
                    p.touched_max, p.probe_max_flows, p.sites
                );
                ok = false;
            }
        }
        if complexity
            .iter()
            .all(|p| p.recomputes > 0 && p.touched_max >= p.probe_max_flows)
        {
            println!(
                "CHECK PASS: solver touched flows track concurrency at all {} site counts",
                complexity.len()
            );
        }
        // Disabled-telemetry wall-time guard: total sweep time vs the
        // previous BENCH_scale.json, compared only like-for-like (same
        // sweep shape and seed). Shared CI runners are noisy, so the smoke
        // gate is loose (1.5x — still catches accidentally always-on
        // telemetry, which costs far more than noise) while the full run
        // enforces the 3% budget.
        match baseline {
            Some(ref b) if b.worker_sweep == list_string(&sweep) && b.seed == args.seed => {
                let ratio = total_wall_s / b.total_wall_s.max(1e-9);
                let limit = if args.smoke { 1.5 } else { 1.03 };
                if ratio > limit {
                    eprintln!(
                        "CHECK FAIL: total wall {total_wall_s:.2}s is {ratio:.2}x the \
                         previous baseline {:.2}s (limit {limit:.2}x)",
                        b.total_wall_s
                    );
                    ok = false;
                } else {
                    println!(
                        "CHECK PASS: total wall {total_wall_s:.2}s within {limit:.2}x of \
                         baseline {:.2}s ({ratio:.2}x)",
                        b.total_wall_s
                    );
                }
            }
            Some(_) => {
                println!("CHECK SKIP: baseline has a different sweep shape or seed");
            }
            None => {
                println!(
                    "CHECK SKIP: no comparable total_wall_s baseline in {}",
                    args.out.display()
                );
            }
        }
        if !ok {
            std::process::exit(1);
        }
        println!(
            "CHECK PASS: all {} runs completed their workload",
            runs.len()
        );
    }
}

/// One point of the instrumented sites sweep: deterministic hot-path
/// instrument readings at a fixed worker count.
struct ComplexityPoint {
    sites: usize,
    events: u64,
    picks: u64,
    changes: u64,
    overlap_sites_count: u64,
    overlap_sites_sum: u64,
    recomputes: u64,
    touched_count: u64,
    touched_sum: u64,
    touched_max: u64,
    probe_max_flows: u64,
}

impl ComplexityPoint {
    fn overlap_sites_mean(&self) -> f64 {
        self.overlap_sites_sum as f64 / (self.overlap_sites_count as f64).max(1.0)
    }

    fn touched_mean(&self) -> f64 {
        self.touched_sum as f64 / (self.touched_count as f64).max(1.0)
    }
}

/// The fields of a previous `BENCH_scale.json` the regression guard needs.
struct Baseline {
    total_wall_s: f64,
    seed: u64,
    worker_sweep: String,
}

/// Extracts the guard fields from a previous report. Hand-rolled (the
/// workspace carries no JSON dependency); returns `None` when any field is
/// missing — e.g. a baseline written before `total_wall_s` existed.
fn parse_baseline(json: &str) -> Option<Baseline> {
    fn field<'a>(json: &'a str, key: &str) -> Option<&'a str> {
        let start = json.find(key)? + key.len();
        let rest = &json[start..];
        let end = rest.find([',', '\n', '}'])?;
        Some(rest[..end].trim())
    }
    let worker_sweep = {
        let key = "\"worker_sweep\": [";
        let start = json.find(key)? + key.len();
        let rest = &json[start..];
        rest[..rest.find(']')?].trim().to_string()
    };
    Some(Baseline {
        total_wall_s: field(json, "\"total_wall_s\": ")?.parse().ok()?,
        seed: field(json, "\"seed\": ")?.parse().ok()?,
        worker_sweep,
    })
}

fn list_string(values: &[usize]) -> String {
    values
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join(", ")
}

/// The identity of a measured configuration: one JSON row per key.
fn run_key(r: &Run) -> (usize, usize, StrategyKind, EvalMode, String) {
    (r.workers, r.sites, r.strategy, r.mode, r.throttle.clone())
}

fn push_row(table: &mut Table, run: &Run) {
    table.push_row(vec![
        run.workers.to_string(),
        run.sites.to_string(),
        run.tasks.to_string(),
        run.strategy.to_string(),
        run.mode.to_string(),
        run.throttle.clone(),
        format!("{:.3}", run.wall_s),
        run.events.to_string(),
        format!("{:.0}", run.events_per_s),
    ]);
}

#[allow(clippy::too_many_arguments)]
fn to_json(
    runs: &[Run],
    speedups: &[(StrategyKind, f64, f64, f64)],
    complexity: &[ComplexityPoint],
    overhead: (f64, f64, u64, u64),
    digest_identical: bool,
    total_wall_s: f64,
    sweep: &[usize],
    sites_sweep: &[usize],
    compare_at: usize,
    args: &Args,
) -> String {
    let list = list_string;
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"bench\": \"perf_scale\",");
    let _ = writeln!(out, "  \"sites\": {SITES},");
    let _ = writeln!(out, "  \"seed\": {},", args.seed);
    let _ = writeln!(out, "  \"total_wall_s\": {total_wall_s:.6},");
    let _ = writeln!(out, "  \"worker_sweep\": [{}],", list(sweep));
    let _ = writeln!(out, "  \"sites_sweep\": [{}],", list(sites_sweep));
    let _ = writeln!(
        out,
        "  \"throttle\": \"cap={THROTTLE_CAP} site-budget={THROTTLE_SITE_BUDGET}\","
    );
    let _ = writeln!(out, "  \"naive_comparison_at\": {compare_at},");
    let _ = writeln!(out, "  \"runs\": [");
    for (i, r) in runs.iter().enumerate() {
        let comma = if i + 1 < runs.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"workers\": {}, \"sites\": {}, \"tasks\": {}, \"strategy\": \"{}\", \
             \"mode\": \"{}\", \"throttle\": \"{}\", \"wall_s\": {:.6}, \"events\": {}, \
             \"events_per_s\": {:.1}, \"makespan_min\": {:.3}, \"tasks_completed\": {}}}{comma}",
            r.workers,
            r.sites,
            r.tasks,
            r.strategy,
            r.mode,
            r.throttle,
            r.wall_s,
            r.events,
            r.events_per_s,
            r.makespan_min,
            r.completed,
        );
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"speedups\": [");
    for (i, &(strategy, naive, inc, speedup)) in speedups.iter().enumerate() {
        let comma = if i + 1 < speedups.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"strategy\": \"{strategy}\", \"workers\": {compare_at}, \
             \"naive_wall_s\": {naive:.6}, \"incremental_wall_s\": {inc:.6}, \
             \"speedup\": {speedup:.2}}}{comma}"
        );
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"complexity\": [");
    for (i, p) in complexity.iter().enumerate() {
        let comma = if i + 1 < complexity.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"sites\": {}, \"events\": {}, \"rank_picks\": {}, \
             \"membership_changes\": {}, \"overlap_sites_mean\": {:.4}, \
             \"solver_recomputes\": {}, \"touched_flows_mean\": {:.2}, \
             \"touched_flows_max\": {}, \"probe_max_in_flight\": {}}}{comma}",
            p.sites,
            p.events,
            p.picks,
            p.changes,
            p.overlap_sites_mean(),
            p.recomputes,
            p.touched_mean(),
            p.touched_max,
            p.probe_max_flows,
        );
    }
    let _ = writeln!(out, "  ],");
    let (traced_wall_s, disabled_wall_s, traced_events, disabled_events) = overhead;
    let _ = writeln!(
        out,
        "  \"telemetry_overhead\": {{\"workers\": {compare_at}, \
         \"disabled_wall_s\": {disabled_wall_s:.6}, \"traced_wall_s\": {traced_wall_s:.6}, \
         \"disabled_events\": {disabled_events}, \"traced_events\": {traced_events}, \
         \"digest_identical\": {digest_identical}}}"
    );
    out.push_str("}\n");
    out
}
