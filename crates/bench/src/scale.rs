//! The scaling benchmark: the paper's case for worker-centric scheduling
//! is that it stays cheap as the grid grows, and these two entries time
//! full simulations from 10² to 10⁵ workers.
//!
//! * `perf_scale` sweeps the worker count over 10²–10⁴ (the six paper
//!   algorithms plus throttled storage affinity at each point), compares
//!   the paper-complexity `naive` scheduler path with the production
//!   `incremental` one at 10⁴, sweeps the site count S ∈ 5…160 at 10⁴
//!   workers, reads the hot-path instruments back over the same S range,
//!   prices live telemetry, and witnesses dispatch-order determinism with
//!   a repeated event digest. `--quick` shrinks it to 10² and 4·10²
//!   workers over S ∈ {2, 5, 10}.
//! * `perf_scale_1e5` is the 10⁵ point alone. Its uncapped
//!   storage-affinity replica storm takes about an hour, so it runs only
//!   when named; it checks that the replica throttle cuts the storm's
//!   events at least 10×.
//!
//! The workload scales with the grid: `tasks = 2 × workers` over a thinned
//! Coadd strip (≈12 files/task), so the sweep stays scheduler- and
//! transfer-bound, and storage covers the file universe (cache churn is
//! `fig4_capacity`'s subject). Only the first topology seed is used.
//!
//! Both entries end against the committed `BENCH_scale.json`, itself a
//! `claims.json` document: every row whose run key it holds must
//! reproduce its `events` and `makespan_min`, and when the committed entry
//! has the same `--quick` flag and first seed, the total timed wall time
//! must stay within 1.03× of its total (1.5× under `--quick`: CI runners
//! are noisy, and always-on telemetry would still cost far more).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use gridsched_core::{EvalMode, ReplicaThrottle, StrategyKind};
use gridsched_sim::telemetry::json::{parse, JsonValue};
use gridsched_sim::telemetry::InstrumentValue;
use gridsched_sim::{GridSim, SimConfig, Telemetry};
use gridsched_workload::coadd::CoaddConfig;
use gridsched_workload::Workload;

use crate::{fmt, Ctx, Table};

/// The site count of the worker sweep (the paper's default).
const SITES: usize = 10;

/// The committed results both entries are compared against.
const BASELINE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scale.json");

const RUNS_TITLE: &str = "perf_scale: wall time per full simulation";
const RUNS_HEADERS: &[&str] = &[
    "workers",
    "sites",
    "tasks",
    "strategy",
    "mode",
    "throttle",
    "wall_s",
    "events",
    "events_per_s",
    "makespan_min",
    "tasks_completed",
];
/// The `RUNS_HEADERS` columns of the run key, of the wall time, and of
/// the deterministic counts the committed file pins.
const KEY_COLUMNS: [usize; 5] = [0, 1, 3, 4, 5];
const WALL_COLUMN: usize = 6;
const COUNT_COLUMNS: [usize; 2] = [7, 9];

/// The two paths of the naive-vs-incremental comparison.
const COMPARED: [StrategyKind; 2] = [StrategyKind::Rest, StrategyKind::Combined2];

/// The runs of the sites sweep at one site count. Storage affinity runs
/// throttled: the point is the O(S) scaling, not another storm.
fn sites_keys(workers: usize, sites: usize) -> [Key; 3] {
    [
        Key::new(workers, sites, StrategyKind::StorageAffinity).throttled(),
        Key::new(workers, sites, StrategyKind::Combined2),
        Key::new(workers, sites, StrategyKind::Sufferage),
    ]
}

/// A thinned Coadd strip sized for `workers`: the same spatial-sharing
/// structure, ~12 files/task.
fn workload(workers: usize, seed: u64) -> Arc<Workload> {
    let mut cfg = CoaddConfig::paper_6000();
    cfg.tasks = (workers * 2).max(200) as u32;
    cfg.seed = seed;
    cfg.window_min = 4;
    cfg.window_max = 8;
    cfg.layers_mean = 3.0;
    cfg.layers_std = 0.5;
    cfg.layers_min = 2;
    cfg.layers_max = 4;
    Arc::new(cfg.generate())
}

/// The identity of a measured configuration: one row per key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Key {
    workers: usize,
    sites: usize,
    strategy: StrategyKind,
    mode: EvalMode,
    throttle: ReplicaThrottle,
}

impl Key {
    /// The incremental, unthrottled run of `strategy`.
    fn new(workers: usize, sites: usize, strategy: StrategyKind) -> Self {
        Key {
            workers,
            sites,
            strategy,
            mode: EvalMode::Incremental,
            throttle: ReplicaThrottle::none(),
        }
    }

    fn naive(self) -> Self {
        Key {
            mode: EvalMode::Naive,
            ..self
        }
    }

    /// The run under the replica throttle the bench tracks: cap 4, site
    /// budget 256, chosen so the 10²–10³ makespans stay within the
    /// seed-to-seed noise of uncapped.
    fn throttled(self) -> Self {
        let throttle = ReplicaThrottle::none().with_replica_cap(4);
        Key {
            throttle: throttle.with_site_budget(256),
            ..self
        }
    }

    fn config(&self, workload: &Arc<Workload>, seed: u64) -> SimConfig {
        let mut config = SimConfig::paper(Arc::clone(workload), self.strategy);
        // The paper topology has 9 MANs × 10 sites; the top of the sites
        // sweep (S = 160) needs a wider grid. Widening changes the
        // generated link draws, so it is applied only where unavoidable —
        // every S ≤ 90 row keeps the paper topology.
        if self.sites > config.topology.site_count() {
            config.topology.sites_per_man = self.sites.div_ceil(config.topology.mans);
        }
        config
            .with_sites(self.sites)
            .with_workers_per_site((self.workers / self.sites).max(1))
            .with_capacity(workload.file_count().max(1))
            .with_seed(seed)
            .with_eval_mode(self.mode)
            .with_replica_throttle(self.throttle)
    }
}

/// One timed simulation.
struct Run {
    key: Key,
    tasks: usize,
    wall_s: f64,
    events: u64,
    makespan_min: f64,
    completed: u64,
}

impl Run {
    /// The row under `RUNS_HEADERS`.
    fn cells(&self) -> Vec<String> {
        let k = &self.key;
        vec![
            k.workers.to_string(),
            k.sites.to_string(),
            self.tasks.to_string(),
            k.strategy.to_string(),
            k.mode.to_string(),
            k.throttle.summary(),
            fmt(self.wall_s, 6),
            self.events.to_string(),
            fmt(self.events as f64 / self.wall_s.max(1e-9), 1),
            fmt(self.makespan_min, 3),
            self.completed.to_string(),
        ]
    }
}

/// An entry's timed runs, one per key, in measurement order.
struct Runs {
    seed: u64,
    runs: Vec<Run>,
}

impl Runs {
    fn new(seed: u64) -> Self {
        Runs {
            seed,
            runs: Vec::new(),
        }
    }

    /// Times the run `key` names, unless it was already measured (the
    /// sites sweep's S = 10 points reuse the worker sweep's rows).
    fn measure(&mut self, workload: &Arc<Workload>, key: Key) {
        if self.runs.iter().any(|r| r.key == key) {
            return;
        }
        let config = key.config(workload, self.seed);
        let started = Instant::now();
        let report = GridSim::new(config).run();
        let wall_s = started.elapsed().as_secs_f64();
        let run = Run {
            key,
            tasks: workload.task_count(),
            wall_s,
            events: report.events_dispatched,
            makespan_min: report.makespan_minutes,
            completed: report.tasks_completed,
        };
        eprintln!("  {}", run.cells().join("  "));
        self.runs.push(run);
    }

    /// Times the six paper algorithms and throttled storage affinity at
    /// `workers` on the paper's site count; returns the workload they ran.
    fn sweep_point(&mut self, workers: usize) -> Arc<Workload> {
        let workload = workload(workers, self.seed);
        for strategy in StrategyKind::PAPER_SET {
            self.measure(&workload, Key::new(workers, SITES, strategy));
        }
        let storm = Key::new(workers, SITES, StrategyKind::StorageAffinity);
        self.measure(&workload, storm.throttled());
        workload
    }

    fn get(&self, key: Key) -> &Run {
        self.runs
            .iter()
            .find(|r| r.key == key)
            .expect("the run was measured")
    }

    /// Emits the runs table and checks that every run completed its
    /// workload and that no key was measured twice.
    fn emit(&self, ctx: &Ctx, name: &str) {
        let mut table = Table::new(RUNS_TITLE, RUNS_HEADERS);
        for run in &self.runs {
            table.push_row(run.cells());
        }
        ctx.emit(table, name);
        let n = self.runs.len();
        ctx.check(
            &format!("all {n} runs completed every task, with positive wall time and events"),
            self.runs
                .iter()
                .all(|r| r.completed == r.tasks as u64 && r.wall_s > 0.0 && r.events > 0),
        );
        let unique = (0..n).all(|i| self.runs[..i].iter().all(|r| r.key != self.runs[i].key));
        ctx.check(&format!("all {n} run keys unique"), unique);
    }

    /// Emits uncapped against throttled storage affinity at `workers` and
    /// returns their event counts.
    fn storm(&self, ctx: &Ctx, name: &str, workers: usize) -> (u64, u64) {
        let uncapped = self.get(Key::new(workers, SITES, StrategyKind::StorageAffinity));
        let throttled = self.get(uncapped.key.throttled());
        let mut table = Table::new(
            format!(
                "{name}: replica throttle ({}) on the storage-affinity storm",
                throttled.key.throttle.summary()
            ),
            &[
                "workers",
                "uncapped_events",
                "throttled_events",
                "events_cut",
                "uncapped_wall_s",
                "throttled_wall_s",
                "uncapped_makespan_min",
                "throttled_makespan_min",
            ],
        );
        table.push_row(vec![
            workers.to_string(),
            uncapped.events.to_string(),
            throttled.events.to_string(),
            fmt(uncapped.events as f64 / throttled.events.max(1) as f64, 1),
            fmt(uncapped.wall_s, 2),
            fmt(throttled.wall_s, 2),
            fmt(uncapped.makespan_min, 0),
            fmt(throttled.makespan_min, 0),
        ]);
        ctx.emit(table, &format!("{name}_storm"));
        (uncapped.events, throttled.events)
    }

    /// Checks the rows against the committed entry `name`: equal counts
    /// wherever a run key matches, and the wall-time guard.
    fn against_committed(&self, ctx: &Ctx, name: &str) {
        let Some(committed) = Committed::load(name).filter(|c| c.seed == self.seed) else {
            println!(
                "CHECK SKIP: no committed {name} entry with seed {} in BENCH_scale.json",
                self.seed
            );
            return;
        };
        let key = |row: &[String]| KEY_COLUMNS.map(|i| row[i].clone());
        let counts = |row: &[String]| COUNT_COLUMNS.map(|i| row[i].clone());
        let pinned: HashMap<_, _> = committed
            .rows
            .iter()
            .map(|row| (key(row), counts(row)))
            .collect();
        let shared: Vec<bool> = self
            .runs
            .iter()
            .map(Run::cells)
            .filter_map(|row| pinned.get(&key(&row)).map(|c| *c == counts(&row)))
            .collect();
        ctx.check(
            &format!(
                "{} rows reproduce the committed events and makespan_min",
                shared.len()
            ),
            shared.iter().all(|&same| same),
        );

        if committed.quick != ctx.quick {
            println!("CHECK SKIP: the committed {name} entry has a different sweep shape");
            return;
        }
        let total: f64 = self.runs.iter().map(|r| r.wall_s).sum();
        let wall = |row: &Vec<String>| row[WALL_COLUMN].parse::<f64>().unwrap_or(f64::NAN);
        let baseline: f64 = committed.rows.iter().map(wall).sum();
        let (limit, ratio) = (if ctx.quick { 1.5 } else { 1.03 }, total / baseline);
        ctx.check(
            &format!(
                "total wall {total:.2}s within {limit:.2}x of the committed {baseline:.2}s \
                 ({ratio:.2}x)"
            ),
            ratio <= limit,
        );
    }
}

/// What the committed `BENCH_scale.json` holds for one entry.
struct Committed {
    quick: bool,
    seed: u64,
    rows: Vec<Vec<String>>,
}

impl Committed {
    /// The entry `name`, if the file is a `claims.json` document holding
    /// one with a runs table of today's columns.
    fn load(name: &str) -> Option<Self> {
        let doc = parse(&std::fs::read_to_string(BASELINE).ok()?).ok()?;
        let strings = |v: &JsonValue| -> Option<Vec<String>> {
            let items = v.as_array()?.iter();
            items.map(|s| s.as_str().map(str::to_string)).collect()
        };
        let named =
            |v: &JsonValue, key, value| v.get(key).and_then(JsonValue::as_str) == Some(value);
        let entries = doc.get("claims")?.as_array()?;
        let entry = entries.iter().find(|e| named(e, "name", name))?;
        let tables = entry.get("tables")?.as_array()?;
        let table = tables.iter().find(|t| named(t, "title", RUNS_TITLE))?;
        let cells = table.get("rows")?.as_array()?.iter().map(strings);
        let rows: Vec<Vec<String>> = cells.collect::<Option<_>>()?;
        let width = RUNS_HEADERS.len();
        if strings(table.get("headers")?)? != RUNS_HEADERS || rows.iter().any(|r| r.len() != width)
        {
            return None;
        }
        Some(Committed {
            quick: entry.get("quick") == Some(&JsonValue::Bool(true)),
            seed: entry.get("seeds")?.as_array()?.first()?.as_u64()?,
            rows,
        })
    }
}

/// The scaling sweep up to 10⁴ workers (see the module docs).
pub(crate) fn perf_scale(ctx: &Ctx) {
    let seed = ctx.seeds[0];
    // The worker sweep, the site counts and the complexity sweep's worker
    // count. The naive comparison, the sites sweep and the telemetry
    // overhead run at the largest sweep point.
    let (sweep, sites_sweep, complexity_workers): (&[usize], &[usize], _) = if ctx.quick {
        (&[100, 400], &[2, 5, 10], 400)
    } else {
        (&[100, 1_000, 10_000], &[5, 10, 20, 40, 80, 160], 2_000)
    };
    let compare_at = sweep[sweep.len() - 1];
    let mut runs = Runs::new(seed);
    for &workers in sweep {
        let workload = runs.sweep_point(workers);
        if workers == compare_at {
            for strategy in COMPARED {
                runs.measure(&workload, Key::new(workers, SITES, strategy).naive());
            }
        }
    }
    // Sites × workers: a fixed site count cannot expose an O(S) term in
    // the per-decision cost (sufferage best-two refresh, per-site rank
    // membership); the sparse-propagation path keeps wall time ~flat here.
    let workload = workload(compare_at, seed);
    for &sites in sites_sweep {
        for key in sites_keys(compare_at, sites) {
            runs.measure(&workload, key);
        }
    }
    runs.emit(ctx, "perf_scale");
    // Only the sites sweep runs xsufferage: its rows are the sweep's points.
    let points: Vec<usize> = runs
        .runs
        .iter()
        .filter(|r| r.key.strategy == StrategyKind::Sufferage)
        .map(|r| r.key.sites)
        .collect();
    let throttled = runs
        .runs
        .iter()
        .filter(|r| r.key.throttle.is_active())
        .count();
    ctx.check(
        &format!(
            "sites sweep covers {} site counts (>= 3) including {SITES}; {throttled} throttled \
             storage-affinity runs",
            points.len()
        ),
        points.len() >= 3 && points.contains(&SITES) && throttled > 0,
    );

    speedups(ctx, &runs, compare_at);
    // Below 10⁵ workers the storm is too small for the ≥ 10× bound: the
    // cut is reported, not checked.
    runs.storm(ctx, "perf_scale", compare_at);

    // Wall time must not grow super-linearly in S at fixed workers (it
    // should be ~flat; the linear bound leaves headroom for fixed per-site
    // costs and noise). Sub-50 ms anchors are dominated by noise.
    let (s_lo, s_hi) = (sites_sweep[0], sites_sweep[sites_sweep.len() - 1]);
    for (lo, hi) in sites_keys(compare_at, s_lo)
        .into_iter()
        .zip(sites_keys(compare_at, s_hi))
    {
        let (w_lo, w_hi, strategy) = (runs.get(lo).wall_s, runs.get(hi).wall_s, lo.strategy);
        if w_lo < 0.05 {
            println!(
                "CHECK SKIP: {strategy} sites-growth guard (anchor {w_lo:.3}s too noisy at \
                 {s_lo} sites)"
            );
            continue;
        }
        let (ratio, linear) = (w_hi / w_lo, s_hi as f64 / s_lo as f64);
        ctx.check(
            &format!(
                "{strategy} sites growth {ratio:.2}x over {s_lo}->{s_hi} sites (linear bound \
                 {linear:.1}x)"
            ),
            ratio <= linear,
        );
    }

    complexity(ctx, complexity_workers, sites_sweep, seed);
    telemetry_overhead(ctx, &runs, compare_at);
    runs.against_committed(ctx, "perf_scale");
}

/// The 10⁵-worker point and its ≥ 10× storm cut (see the module docs).
pub(crate) fn perf_scale_1e5(ctx: &Ctx) {
    const WORKERS: usize = 100_000;
    let mut runs = Runs::new(ctx.seeds[0]);
    runs.sweep_point(WORKERS);
    runs.emit(ctx, "perf_scale_1e5");
    let (uncapped, throttled) = runs.storm(ctx, "perf_scale_1e5", WORKERS);
    ctx.check(
        &format!("replica throttle cuts the storm's events >= 10x ({uncapped} -> {throttled})"),
        throttled.saturating_mul(10) <= uncapped,
    );
    runs.against_committed(ctx, "perf_scale_1e5");
}

/// The naive and incremental scheduler paths at `workers`: the same
/// decisions, so the same events, at a ≥ 5× lower wall time. The quick
/// sweep is too small for the asymptotics to show, and millisecond wall
/// ratios flake on loaded CI runners, so it checks the events only.
fn speedups(ctx: &Ctx, runs: &Runs, workers: usize) {
    let mut table = Table::new(
        format!("perf_scale: naive vs incremental scheduler path at {workers} workers"),
        &[
            "strategy",
            "naive_wall_s",
            "incremental_wall_s",
            "speedup",
            "naive_events",
            "incremental_events",
        ],
    );
    let mut measured = Vec::new();
    for strategy in COMPARED {
        let incremental = runs.get(Key::new(workers, SITES, strategy));
        let naive = runs.get(incremental.key.naive());
        let speedup = naive.wall_s / incremental.wall_s.max(1e-9);
        table.push_row(vec![
            strategy.to_string(),
            fmt(naive.wall_s, 6),
            fmt(incremental.wall_s, 6),
            fmt(speedup, 2),
            naive.events.to_string(),
            incremental.events.to_string(),
        ]);
        measured.push((strategy, naive.events == incremental.events, speedup));
    }
    ctx.emit(table, "perf_scale_speedup");
    for (strategy, same_events, speedup) in measured {
        ctx.check(
            &format!("{strategy} naive/incremental event counts match"),
            same_events,
        );
        if !ctx.quick {
            ctx.check(
                &format!("{strategy} incremental >= 5x naive ({speedup:.1}x)"),
                speedup >= 5.0,
            );
        }
    }
}

/// Re-runs combined.2 at every site count with telemetry live and reads
/// the hot-path instruments back. They count decisions, not time, so the
/// complexity claims are checked exactly, immune to machine noise:
///
/// * a rank-membership change touches O(1) site ranks — the cold rank and
///   the sites holding the task's files — independent of S;
/// * the max–min solver visits exactly the concurrent flows per solve,
///   so its per-solve maximum reaches the sampled in-flight peak: a solve
///   runs whenever the route multiset changes, and the in-flight count
///   can only rise through such a change.
///
/// The worker count is modest: the claims are per-decision ratios.
fn complexity(ctx: &Ctx, workers: usize, sites_sweep: &[usize], seed: u64) {
    let workload = workload(workers, seed);
    let mut table = Table::new(
        format!("perf_scale: hot-path instruments of combined.2 at {workers} workers"),
        &[
            "sites",
            "events",
            "rank_picks",
            "membership_changes",
            "overlap_sites_mean",
            "solver_recomputes",
            "touched_flows_mean",
            "touched_flows_max",
            "probe_max_in_flight",
        ],
    );
    // (membership changes, mean site ranks per change) per site count.
    let mut flatness = Vec::new();
    let (mut one_sample_per_change, mut solver_tracks_concurrency) = (true, true);
    for &sites in sites_sweep {
        let key = Key::new(workers, sites, StrategyKind::Combined2);
        let telemetry = Telemetry::enabled();
        let report = GridSim::new(key.config(&workload, seed).with_probe_interval(600.0))
            .with_telemetry(telemetry.clone())
            .run();
        let snapshot = telemetry.snapshot();
        let value = |name| snapshot.iter().find(|s| s.name == name).map(|s| &s.value);
        let counter = |name| match value(name) {
            Some(InstrumentValue::Counter { value }) => *value,
            _ => 0,
        };
        // (count, sum, max)
        let histogram = |name| match value(name) {
            Some(InstrumentValue::Histogram {
                count, sum, max, ..
            }) => (*count, *sum, *max),
            _ => (0, 0, 0),
        };
        let changes = counter("scheduler.rank.membership_changes");
        let recomputes = counter("net.solver.recomputes");
        let overlap = histogram("scheduler.rank.overlap_sites");
        let touched = histogram("net.solver.touched_flows");
        let probe_max = telemetry
            .probes()
            .iter()
            .map(|p| p.in_flight_flows)
            .max()
            .unwrap_or(0);
        let overlap_mean = overlap.1 as f64 / (overlap.0 as f64).max(1.0);
        table.push_row(vec![
            sites.to_string(),
            report.events_dispatched.to_string(),
            counter("scheduler.rank.picks").to_string(),
            changes.to_string(),
            fmt(overlap_mean, 4),
            recomputes.to_string(),
            fmt(touched.1 as f64 / (touched.0 as f64).max(1.0), 2),
            touched.2.to_string(),
            probe_max.to_string(),
        ]);
        flatness.push((changes, overlap_mean));
        one_sample_per_change &= overlap.0 == changes;
        solver_tracks_concurrency &= recomputes > 0 && touched.2 >= probe_max;
    }
    ctx.emit(table, "perf_scale_complexity");
    let ((c_lo, m_lo), (c_hi, m_hi)) = (flatness[0], flatness[flatness.len() - 1]);
    let (s_lo, s_hi) = (sites_sweep[0], sites_sweep[sites_sweep.len() - 1]);
    ctx.check(
        &format!(
            "site ranks per membership change flat ({m_lo:.3} @ {s_lo} -> {m_hi:.3} @ {s_hi} \
             sites)"
        ),
        c_lo > 0 && c_hi > 0 && m_hi <= 2.0 * m_lo + 0.5,
    );
    ctx.check(
        "every membership change records one site-count sample",
        one_sample_per_change,
    );
    ctx.check(
        &format!(
            "solver touched flows track concurrency at all {} site counts",
            sites_sweep.len()
        ),
        solver_tracks_concurrency,
    );
}

/// Re-runs combined.2 at `workers` with every instrument, span and probe
/// live, so the cost of turning telemetry on is a published number, and
/// checks that the traced run dispatched the disabled run's events. The
/// count cannot see a reordering that keeps it, so a repeated run with the
/// windowed event digest (which hashes every dispatched event in order)
/// must also reproduce byte for byte.
fn telemetry_overhead(ctx: &Ctx, runs: &Runs, workers: usize) {
    let disabled = runs.get(Key::new(workers, SITES, StrategyKind::Combined2));
    let config = disabled
        .key
        .config(&workload(workers, runs.seed), runs.seed)
        .with_probe_interval(600.0);
    let started = Instant::now();
    let report = GridSim::new(config)
        .with_telemetry(Telemetry::enabled())
        .run();
    let (traced_wall_s, traced) = (started.elapsed().as_secs_f64(), report.events_dispatched);
    let digest_identical = digest_identical(runs.seed);
    let mut table = Table::new(
        format!("perf_scale: telemetry overhead of combined.2 at {workers} workers"),
        &[
            "disabled_wall_s",
            "traced_wall_s",
            "overhead_pct",
            "disabled_events",
            "traced_events",
            "digest_identical",
        ],
    );
    table.push_row(vec![
        fmt(disabled.wall_s, 6),
        fmt(traced_wall_s, 6),
        fmt((traced_wall_s / disabled.wall_s.max(1e-9) - 1.0) * 100.0, 1),
        disabled.events.to_string(),
        traced.to_string(),
        digest_identical.to_string(),
    ]);
    ctx.emit(table, "perf_scale_telemetry");
    ctx.check(
        &format!("traced run events match disabled run ({traced})"),
        traced == disabled.events,
    );
    ctx.check(
        "repeat-run event digests byte-identical (combined.2, 400 workers)",
        digest_identical,
    );
}

/// Runs combined.2 at 400 workers twice with the event digest on and
/// compares the two digest files.
fn digest_identical(seed: u64) -> bool {
    let key = Key::new(400, SITES, StrategyKind::Combined2);
    let workload = workload(key.workers, seed);
    let file = format!("perf-scale-digest-{}.jsonl", std::process::id());
    let path = std::env::temp_dir().join(file);
    let digest = || {
        let path_str = path.to_str().expect("utf-8 temp path");
        let _ = GridSim::new(key.config(&workload, seed).with_digest_out(path_str)).run();
        let digest = std::fs::read(&path).expect("digest file written");
        let _ = std::fs::remove_file(&path);
        digest
    };
    digest() == digest()
}
