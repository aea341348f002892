//! The paper's figures and tables (§5).

use std::sync::Arc;

use gridsched_core::StrategyKind;
use gridsched_sim::SimConfig;
use gridsched_workload::coadd::CoaddConfig;

use crate::{fmt, Ctx, Sweep, Table};

fn cdf_table(ctx: &Ctx, name: &str, title: &str, cfg: &CoaddConfig) -> f64 {
    let stats = cfg.generate().stats();
    let mut table = Table::new(title, &["min_references", "pct_files"]);
    for (k, pct) in stats.reference_cdf() {
        table.push_row(vec![k.to_string(), fmt(pct, 2)]);
    }
    ctx.emit(table, name);
    stats.pct_files_with_at_least(6)
}

/// Figures 1 and 3 — Coadd file-access CDF.
///
/// Figure 1: full Coadd (44,000 tasks); Figure 3: the scaled 6,000-task
/// workload. The y value at `x = k` is the percentage of files referenced
/// by **at least** `k` tasks (decreasing x-axis in the paper). The paper's
/// headline readings: Fig. 1 — "roughly 90% of files are accessed by 6 or
/// more tasks"; Fig. 3 — "roughly 85%".
pub(crate) fn fig1_3_file_cdf(ctx: &Ctx) {
    let mut full = CoaddConfig::paper_full();
    if ctx.quick {
        // Scale the full workload down proportionally under --quick.
        full.tasks = 11_000;
    }
    let pct6_full = cdf_table(
        ctx,
        "fig1_file_cdf_full",
        "Figure 1: file access CDF, full Coadd",
        &full,
    );
    let pct6_scaled = cdf_table(
        ctx,
        "fig3_file_cdf_6000",
        "Figure 3: file access CDF, scaled Coadd",
        &ctx.coadd_config(),
    );

    println!();
    println!("paper Fig.1: ~90% of files accessed by >=6 tasks; measured {pct6_full:.1}%");
    println!("paper Fig.3: ~85% of files accessed by >=6 tasks; measured {pct6_scaled:.1}%");
    ctx.check(
        "Fig.1: most files (75-97%) referenced by >=6 tasks",
        (75.0..=97.0).contains(&pct6_full),
    );
    ctx.check(
        "Fig.3: most files (75-97%) referenced by >=6 tasks",
        (75.0..=97.0).contains(&pct6_scaled),
    );
}

/// Figures 4 and 5 — makespan and file transfers vs data-server capacity.
///
/// Sweeps capacities {3,000, 6,000, 15,000, 30,000} files for the six
/// algorithms of §5.3 (5 topology replicates, averaged). The paper's
/// qualitative claims, asserted under `--check`:
///
/// * storage affinity suffers at small capacities (premature scheduling
///   decisions) and becomes comparable as capacity grows;
/// * worker-centric metrics are nearly flat in capacity (a Coadd task's
///   working set is small);
/// * `overlap` incurs clearly more file transfers than `rest`/`combined`
///   (it does not consider the number of transfers).
pub(crate) fn fig4_capacity(ctx: &Ctx) {
    let workload = ctx.workload();
    // The quick workload (1,500 tasks) touches ~13.5k files, so quick
    // capacities scale down to keep the same storage pressure.
    let capacities: &[usize] = if ctx.quick {
        &[700, 7500]
    } else {
        &[3000, 6000, 15_000, 30_000]
    };

    let mut makespan = Table::new(
        "Figure 4: makespan (minutes) vs capacity",
        &["capacity", "algorithm", "makespan_min"],
    );
    let mut transfers = Table::new(
        "Figure 5: number of file transfers vs capacity",
        &[
            "capacity",
            "algorithm",
            "file_transfers",
            "transfers_per_site",
        ],
    );
    let sweep = Sweep::run(
        ctx,
        capacities,
        &StrategyKind::PAPER_SET,
        |cap, strategy| SimConfig::paper(workload.clone(), strategy).with_capacity(cap),
        |cap, strategy, r| {
            makespan.push_row(vec![
                cap.to_string(),
                strategy.to_string(),
                fmt(r.makespan_minutes, 0),
            ]);
            transfers.push_row(vec![
                cap.to_string(),
                strategy.to_string(),
                r.file_transfers.to_string(),
                fmt(r.avg_transfers_per_site(), 0),
            ]);
        },
    );
    ctx.emit(makespan, "fig4_makespan_vs_capacity");
    ctx.emit(transfers, "fig5_transfers_vs_capacity");

    let sa = sweep.makespans(StrategyKind::StorageAffinity);
    let rest = sweep.makespans(StrategyKind::Rest);
    let ov = sweep.of(StrategyKind::Overlap);
    let rest_reports = sweep.of(StrategyKind::Rest);
    let last = capacities.len() - 1;

    // The premature-decision penalty needs many spatial regions per site
    // queue (full scale); the 1,500-task quick workload has too few blocks
    // per site to thrash, so these two checks are full-mode only.
    if !ctx.quick {
        ctx.check(
            "storage affinity improves from smallest to largest capacity",
            sa[0] > sa[last],
        );
        ctx.check(
            "storage affinity is hurt more at small capacity than rest is",
            sa[0] / sa[last] > rest[0] / rest[last],
        );
    }
    ctx.check(
        "overlap transfers exceed rest transfers at every capacity (Fig. 5)",
        ov.iter()
            .zip(rest_reports)
            .all(|(o, r)| o.file_transfers > r.file_transfers),
    );
    ctx.check(
        "overlap makespan is worse than rest at every capacity",
        ov.iter()
            .zip(rest_reports)
            .all(|(o, r)| o.makespan_minutes > r.makespan_minutes),
    );
    let max = rest.iter().copied().fold(f64::MIN, f64::max);
    let min = rest.iter().copied().fold(f64::MAX, f64::min);
    ctx.check(
        "rest is nearly flat across capacities (<10% spread)",
        (max - min) / min < 0.10,
    );
    let c = capacities.iter().position(|&c| c >= 6000).unwrap_or(0);
    ctx.check(
        "a worker-centric strategy wins at the default capacity",
        sweep.best_worker_centric(c) < sa[c],
    );
}

/// Figure 6 — makespan vs number of workers per site.
///
/// Sweeps 2–10 workers per site (Table 1 defaults otherwise). The paper's
/// observations, asserted under `--check`:
///
/// * makespan broadly decreases with more workers but **flattens** — the
///   data server serialises batch requests, so its contention grows with
///   the worker count and eats the extra parallelism;
/// * per-request waiting time rises with the number of workers per site
///   (the contention factor of Table 3).
pub(crate) fn fig6_workers(ctx: &Ctx) {
    let workload = ctx.workload();
    let worker_counts: &[usize] = if ctx.quick {
        &[2, 6]
    } else {
        &[2, 4, 6, 8, 10]
    };

    let mut table = Table::new(
        "Figure 6: makespan (minutes) vs workers per site",
        &["workers", "algorithm", "makespan_min", "avg_wait_h"],
    );
    let sweep = Sweep::run(
        ctx,
        worker_counts,
        &StrategyKind::PAPER_SET,
        |w, strategy| SimConfig::paper(workload.clone(), strategy).with_workers_per_site(w),
        |w, strategy, r| {
            table.push_row(vec![
                w.to_string(),
                strategy.to_string(),
                fmt(r.makespan_minutes, 0),
                fmt(r.avg_waiting_hours(), 3),
            ]);
        },
    );
    ctx.emit(table, "fig6_makespan_vs_workers");

    let rest = sweep.of(StrategyKind::Rest);
    let last = worker_counts.len() - 1;
    ctx.check(
        "makespan decreases from fewest to most workers (rest)",
        rest[0].makespan_minutes > rest[last].makespan_minutes,
    );
    ctx.check(
        "per-request waiting time rises with workers per site (rest)",
        rest[last].avg_waiting_hours() > rest[0].avg_waiting_hours(),
    );
    if !ctx.quick {
        // Flattening: the last doubling of workers (4→8 equivalent; here
        // 8→10) buys much less than proportional speed-up.
        let second_last = worker_counts.len() - 2;
        let gain = rest[second_last].makespan_minutes / rest[last].makespan_minutes;
        let ideal = worker_counts[last] as f64 / worker_counts[second_last] as f64;
        ctx.check(
            "makespan flattens at high worker counts (rest)",
            gain < ideal,
        );
    }
}

/// Figure 7 — makespan vs number of sites.
///
/// Sweeps 10–26 sites (Table 1 defaults otherwise). Paper: "makespan of
/// each algorithm reduces as the number of sites increases, as expected";
/// `combined.2` performs best; randomized beats deterministic.
pub(crate) fn fig7_sites(ctx: &Ctx) {
    let workload = ctx.workload();
    let site_counts: &[usize] = if ctx.quick {
        &[10, 18]
    } else {
        &[10, 14, 18, 22, 26]
    };

    let mut table = Table::new(
        "Figure 7: makespan (minutes) vs number of sites",
        &["sites", "algorithm", "makespan_min", "file_transfers"],
    );
    let sweep = Sweep::run(
        ctx,
        site_counts,
        &StrategyKind::PAPER_SET,
        |s, strategy| SimConfig::paper(workload.clone(), strategy).with_sites(s),
        |s, strategy, r| {
            table.push_row(vec![
                s.to_string(),
                strategy.to_string(),
                fmt(r.makespan_minutes, 0),
                r.file_transfers.to_string(),
            ]);
        },
    );
    ctx.emit(table, "fig7_makespan_vs_sites");

    for strategy in [
        StrategyKind::Rest,
        StrategyKind::Combined2,
        StrategyKind::StorageAffinity,
    ] {
        let series = sweep.makespans(strategy);
        ctx.check(
            &format!("{strategy}: makespan decreases as sites increase"),
            series.first() > series.last(),
        );
    }
    let last = site_counts.len() - 1;
    ctx.check(
        "a worker-centric metric beats storage affinity at the largest site count",
        sweep.best_worker_centric(last) < sweep.makespans(StrategyKind::StorageAffinity)[last],
    );
}

/// Figure 8 — makespan vs file size.
///
/// Sweeps file sizes {5, 25, 50} MB (communication cost). Paper: "the
/// makespan grows almost linearly as the file size grows" and no algorithm
/// changes behaviour dramatically; `combined.2` stays best.
pub(crate) fn fig8_filesize(ctx: &Ctx) {
    let sizes_mb: &[f64] = if ctx.quick {
        &[5.0, 50.0]
    } else {
        &[5.0, 25.0, 50.0]
    };

    let mut table = Table::new(
        "Figure 8: makespan (minutes) vs file size (MB)",
        &["file_size_mb", "algorithm", "makespan_min"],
    );
    // The file size lives on the workload; regenerate per point (same
    // seed → identical task structure, only the byte size changes).
    let workloads: Vec<_> = sizes_mb
        .iter()
        .map(|&mb| Arc::new(ctx.coadd_config().with_file_size_mb(mb).generate()))
        .collect();
    let sweep = Sweep::run(
        ctx,
        &(0..sizes_mb.len()).collect::<Vec<_>>(),
        &StrategyKind::PAPER_SET,
        |i, strategy| SimConfig::paper(workloads[i].clone(), strategy),
        |i, strategy, r| {
            table.push_row(vec![
                fmt(sizes_mb[i], 0),
                strategy.to_string(),
                fmt(r.makespan_minutes, 0),
            ]);
        },
    );
    ctx.emit(table, "fig8_makespan_vs_filesize");

    let rest = sweep.makespans(StrategyKind::Rest);
    ctx.check(
        "makespan grows with file size (rest)",
        rest.windows(2).all(|w| w[1] > w[0]),
    );
    if !ctx.quick {
        // Near-linear growth: the incremental cost per MB from 5→25 and
        // 25→50 should be within 2.5x of each other (transfer component
        // scales linearly; the compute floor is constant).
        let slope_a = (rest[1] - rest[0]) / 20.0;
        let slope_b = (rest[2] - rest[1]) / 25.0;
        ctx.check(
            "growth is roughly linear in file size (rest)",
            slope_a > 0.0 && slope_b > 0.0 && slope_b / slope_a < 2.5 && slope_a / slope_b < 2.5,
        );
    }
    let growth = |series: &[f64]| series[series.len() - 1] - series[0];
    ctx.check(
        "overlap suffers more from larger files than rest",
        growth(&sweep.makespans(StrategyKind::Overlap)) > growth(&rest),
    );
}

/// Table 2 — characteristics of Coadd with 6,000 tasks.
///
/// Paper values: 53,390 total files; max 101 / min 36 / mean 78.4327 files
/// per task. Our synthetic generator is calibrated to land within a few
/// percent (see `gridsched-workload`'s calibration tests).
pub(crate) fn table2_workload(ctx: &Ctx) {
    let s = ctx.workload().stats();

    let mut table = Table::new(
        "Table 2: characteristics of Coadd",
        &["metric", "paper", "measured"],
    );
    table.push_row(vec![
        "total number of files".into(),
        if ctx.quick {
            "n/a (quick)".into()
        } else {
            "53390".into()
        },
        s.total_files.to_string(),
    ]);
    table.push_row(vec![
        "max files needed by a task".into(),
        "101".into(),
        s.max_files_per_task.to_string(),
    ]);
    table.push_row(vec![
        "min files needed by a task".into(),
        "36".into(),
        s.min_files_per_task.to_string(),
    ]);
    table.push_row(vec![
        "avg files needed by a task".into(),
        "78.4327".into(),
        fmt(s.mean_files_per_task, 4),
    ]);
    ctx.emit(table, "table2_workload");

    if !ctx.quick {
        let paper_total = 53_390.0;
        ctx.check(
            "total files within 5% of 53,390",
            (s.total_files as f64 - paper_total).abs() < paper_total * 0.05,
        );
        ctx.check(
            "mean files/task within 3 of 78.4327",
            (s.mean_files_per_task - 78.4327).abs() < 3.0,
        );
    }
    ctx.check(
        "min files/task in [30, 45]",
        (30..=45).contains(&s.min_files_per_task),
    );
    ctx.check(
        "max files/task in [95, 130]",
        (95..=130).contains(&s.max_files_per_task),
    );
}

/// Table 3 — per-request waiting/transfer time of `rest` vs workers/site.
///
/// The paper reports, for one site, the average waiting time a batch
/// request spends in the data server's queue, the average time to transfer
/// the missing files, and the number of file transfers — for 2, 4, 6 and 8
/// workers per site. The load-bearing observation is the **tension**
/// between two factors: more workers → more contention at the serialising
/// data server (waiting up), but also more sharing (transfers and
/// per-batch transfer time down). We report the average over all sites
/// plus the single worst site (closest to the paper's hand-picked site).
pub(crate) fn table3_waiting(ctx: &Ctx) {
    let workload = ctx.workload();
    let worker_counts: &[usize] = if ctx.quick { &[2, 6] } else { &[2, 4, 6, 8] };

    let mut table = Table::new(
        "Table 3: rest metric, per-request averages vs workers per site",
        &[
            "workers",
            "wait_h(all sites)",
            "xfer_h(all sites)",
            "transfers/site",
            "wait_h(worst site)",
            "xfer_h(worst site)",
        ],
    );
    let sweep = Sweep::run(
        ctx,
        worker_counts,
        &[StrategyKind::Rest],
        |w, strategy| SimConfig::paper(workload.clone(), strategy).with_workers_per_site(w),
        |w, _, r| {
            let worst = r
                .per_site
                .iter()
                .max_by(|a, b| {
                    a.avg_waiting_hours()
                        .partial_cmp(&b.avg_waiting_hours())
                        .expect("finite")
                })
                .expect("at least one site");
            table.push_row(vec![
                w.to_string(),
                fmt(r.avg_waiting_hours(), 3),
                fmt(r.avg_transfer_hours(), 3),
                fmt(r.avg_transfers_per_site(), 1),
                fmt(worst.avg_waiting_hours(), 3),
                fmt(worst.avg_transfer_hours(), 3),
            ]);
        },
    );
    ctx.emit(table, "table3_waiting_vs_workers");

    let rest = sweep.of(StrategyKind::Rest);
    let (first, last) = (&rest[0], &rest[rest.len() - 1]);
    ctx.check(
        "waiting time grows with contention (more workers per site)",
        last.avg_waiting_hours() > first.avg_waiting_hours(),
    );
    ctx.check(
        "per-request transfer time does not grow with more workers (sharing)",
        last.avg_transfer_hours() <= first.avg_transfer_hours() * 1.25,
    );
}
