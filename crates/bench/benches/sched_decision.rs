//! §4.4 complexity benchmark — one scheduling decision.
//!
//! The paper: the worker-centric basic algorithm is `O(T·I)` per request
//! (`T` pending tasks, `I` files per task), versus `O(T·I·S)` for
//! task-centric assignment. We measure:
//!
//! * the naive `O(T·I)` weight evaluation (direct file probing),
//! * the ranked path (this library's incremental default): storage events
//!   feeding a per-site `TaskRank`, each batch followed by one ranked pick
//!   off the bucket heads,
//! * storage affinity's full `O(T·I·S)` assignment phase,
//!
//! at several queue lengths `T`.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use gridsched_core::index::{enable_ranks, ComboAggregates, FileIndex, SiteView};
use gridsched_core::weight::weigh_all_naive;
use gridsched_core::{ChooseTask, GridEnv, Scheduler, StorageAffinity, TaskPool, WeightMetric};
use gridsched_storage::{EvictionPolicy, SiteStore};
use gridsched_workload::coadd::CoaddConfig;
use gridsched_workload::Workload;

fn warm_store(workload: &Workload, files: usize) -> SiteStore {
    let mut store = SiteStore::new(files.max(1), EvictionPolicy::Lru);
    // Fill with the first tasks' inputs so overlaps are non-trivial.
    'outer: for task in workload.tasks() {
        for &f in task.files() {
            if store.len() >= files {
                break 'outer;
            }
            store.insert(f);
        }
    }
    store
}

fn bench_decision(c: &mut Criterion) {
    let mut group = c.benchmark_group("sched_decision");
    for &tasks in &[500u32, 2000, 6000] {
        let mut cfg = CoaddConfig::paper_6000();
        cfg.tasks = tasks;
        let workload = Arc::new(cfg.generate());
        let store = warm_store(&workload, 3000);
        let pool = TaskPool::full(workload.task_count());
        for metric in [
            WeightMetric::Overlap,
            WeightMetric::Rest,
            WeightMetric::Combined,
        ] {
            group.bench_with_input(
                BenchmarkId::new(format!("naive_OTI_{metric}"), tasks),
                &tasks,
                |b, _| {
                    b.iter(|| {
                        std::hint::black_box(weigh_all_naive(metric, &workload, &pool, &store))
                    })
                },
            );
        }
    }
    group.finish();
}

/// Storage events per ranked pick: file arrivals, each followed by one
/// task reference to the arrived file (LRU evictions ride along).
const EVENTS_PER_PICK: usize = 16;
/// Picks per timed sample.
const PICKS_PER_SAMPLE: usize = 100;

/// The ranked read path under storage churn. A site's view over a warm
/// 3000-file LRU store has a rank attached and the whole queue pending;
/// every pick is preceded by [`EVENTS_PER_PICK`] arrivals of the next
/// coadd inputs (in task order) and their references, forwarded to the
/// view together with the evictions they cause. The `combined`
/// normalisers are held at their warm-store values, so only the rank's
/// maintenance and the read are timed.
fn bench_ranked_refile(c: &mut Criterion) {
    let mut group = c.benchmark_group("ranked_refile");
    for &tasks in &[500u32, 2000, 6000] {
        let mut cfg = CoaddConfig::paper_6000();
        cfg.tasks = tasks;
        let workload = Arc::new(cfg.generate());
        let arrivals: Vec<_> = workload
            .tasks()
            .iter()
            .flat_map(|t| t.files().iter().copied())
            .collect();
        let pool = TaskPool::full(workload.task_count());
        let index = FileIndex::build(&workload);
        for metric in [WeightMetric::Rest, WeightMetric::Combined] {
            let mut store = warm_store(&workload, 3000);
            let mut view = SiteView::new(workload.task_count());
            let mut combo = ComboAggregates::new(&index, &pool, 1);
            for f in store.resident() {
                let rc = store.ref_count(f);
                view.on_file_added(&index, f, rc);
                combo.on_file_added(0, &index, &view, f, rc, &pool);
            }
            let totals = (metric == WeightMetric::Combined).then(|| combo.totals(0));
            enable_ranks(std::slice::from_mut(&mut view), metric, &index, &pool);
            let chooser = ChooseTask::new(2);
            let mut rng = StdRng::seed_from_u64(0);
            let mut next = store.len() % arrivals.len();
            group.bench_with_input(
                BenchmarkId::new(metric.to_string(), tasks),
                &tasks,
                |b, _| {
                    b.iter(|| {
                        for _ in 0..PICKS_PER_SAMPLE {
                            let mut events = 0;
                            while events < EVENTS_PER_PICK {
                                let f = arrivals[next];
                                next = (next + 1) % arrivals.len();
                                if store.contains(f) {
                                    continue;
                                }
                                for e in store.insert(f) {
                                    view.on_file_evicted(&index, e, store.ref_count(e));
                                }
                                view.on_file_added(&index, f, store.ref_count(f));
                                store.record_task_reference(f);
                                view.on_task_reference(&index, f);
                                events += 1;
                            }
                            std::hint::black_box(view.pick_ranked(
                                &chooser,
                                &mut rng,
                                |_| true,
                                totals,
                            ));
                        }
                    })
                },
            );
        }
    }
    group.finish();
}

fn bench_storage_affinity_assignment(c: &mut Criterion) {
    let mut group = c.benchmark_group("sa_assignment_OTIS");
    group.sample_size(10);
    for &sites in &[10usize, 26] {
        let mut cfg = CoaddConfig::paper_6000();
        cfg.tasks = 2000;
        let workload = Arc::new(cfg.generate());
        let env = GridEnv {
            sites,
            workers_per_site: 1,
            capacity_files: 6000,
        };
        let stores: Vec<SiteStore> = (0..sites)
            .map(|_| SiteStore::new(6000, EvictionPolicy::Lru))
            .collect();
        group.bench_with_input(BenchmarkId::from_parameter(sites), &sites, |b, _| {
            b.iter(|| {
                let mut sched = StorageAffinity::new(workload.clone());
                sched.initialize(&env, &stores);
                std::hint::black_box(sched.unfinished())
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_decision,
    bench_ranked_refile,
    bench_storage_affinity_assignment
);
criterion_main!(benches);
