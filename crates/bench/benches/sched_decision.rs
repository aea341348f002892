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
//! * one ranked pick plus its pool removal at a site of an `S`-site grid,
//!   for `S` ∈ {5, 40, 160}: the per-pick site-count term,
//! * storage affinity's full `O(T·I·S)` assignment phase,
//! * one task start's references at a warm site, through the scheduler's
//!   batched hook: a no-op for `rest`, one pass over each file's readers
//!   for `combined`; with the whole queue pending, and with half of it
//!   started, so that a reader's liveness is a coin flip as it is mid-run,
//! * one fetched file's arrival at a warm site with half the queue started,
//!   through the scheduler's `on_file_added` hook,
//!
//! at several queue lengths `T`.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use gridsched_core::index::{ColdRank, FileIndex, SiteView};
use gridsched_core::weight::weigh_all_naive;
use gridsched_core::{
    Assignment, ChooseTask, GridEnv, Scheduler, SiteId, StorageAffinity, TaskPool, WeightMetric,
    WorkerCentric, WorkerId,
};
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
/// task reference to the arrived file (LRU evictions ride along). The
/// reference reaches the view only if it tracks references (`combined`).
const EVENTS_PER_PICK: usize = 16;
/// Picks per timed sample.
const PICKS_PER_SAMPLE: usize = 100;

/// The ranked read path under storage churn. A site's view over a warm
/// 3000-file LRU store has a rank attached and the whole queue pending;
/// every pick is preceded by [`EVENTS_PER_PICK`] arrivals of the next
/// coadd inputs (in task order) and their references, forwarded to the
/// view together with the evictions they cause. The pool never changes,
/// so only the rank's maintenance and the read are timed.
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
            let mut view = SiteView::new(0, &index, metric);
            let mut cold = ColdRank::new(metric, &index);
            for f in store.resident() {
                view.on_file_added(&index, &mut cold, f, store.ref_count(f));
            }
            cold.admit_all(std::slice::from_mut(&mut view), &pool);
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
                                    view.on_file_evicted(&index, &mut cold, e, store.ref_count(e));
                                }
                                view.on_file_added(&index, &mut cold, f, store.ref_count(f));
                                store.record_task_reference(f);
                                if view.tracks_references() {
                                    view.on_files_referenced(&index, &cold, &[f]);
                                }
                                events += 1;
                            }
                            std::hint::black_box(view.pick_ranked(&cold, &chooser, &mut rng));
                        }
                    })
                },
            );
        }
    }
    group.finish();
}

/// The ranked state of one `S`-site grid: a view per site over one cold
/// rank, every task pending, each site holding the inputs of its share of
/// the (unshuffled, so spatially ordered) tasks.
fn sited_views(
    workload: &Workload,
    index: &FileIndex,
    metric: WeightMetric,
    sites: usize,
) -> (Vec<SiteView>, ColdRank) {
    let mut views: Vec<SiteView> = (0..sites)
        .map(|s| SiteView::new(s, index, metric))
        .collect();
    let mut cold = ColdRank::new(metric, index);
    let tasks = workload.task_count();
    for (s, view) in views.iter_mut().enumerate() {
        let mut store = SiteStore::new(workload.file_count(), EvictionPolicy::Lru);
        for task in &workload.tasks()[s * tasks / sites..(s + 1) * tasks / sites] {
            for &f in task.files() {
                if !store.contains(f) {
                    store.insert(f);
                    view.on_file_added(index, &mut cold, f, store.ref_count(f));
                }
            }
        }
    }
    cold.admit_all(&mut views, &TaskPool::full(tasks));
    (views, cold)
}

/// One ranked pick plus its pool removal at each site in turn of an
/// `S`-site grid (see [`sited_views`]), for `combined.2` and `rest.2`
/// over one workload: tracks the per-pick cost term in `S`. Every sample
/// starts from the same state (the clone is not timed).
fn bench_pick_vs_sites(c: &mut Criterion) {
    let mut group = c.benchmark_group("pick_vs_sites");
    let mut cfg = CoaddConfig::paper_6000();
    cfg.tasks = 2000;
    cfg.shuffle_tasks = false;
    let workload = cfg.generate();
    let index = FileIndex::build(&workload);
    let chooser = ChooseTask::new(2);
    for metric in [WeightMetric::Combined, WeightMetric::Rest] {
        for sites in [5usize, 40, 160] {
            let state = sited_views(&workload, &index, metric, sites);
            group.bench_with_input(
                BenchmarkId::new(format!("{metric}.2"), sites),
                &sites,
                |b, _| {
                    b.iter_with_setup(
                        || (state.clone(), StdRng::seed_from_u64(0)),
                        |((mut views, mut cold), mut rng)| {
                            for i in 0..PICKS_PER_SAMPLE {
                                let t = views[i % sites]
                                    .pick_ranked(&cold, &chooser, &mut rng)
                                    .expect("pool outlasts a sample");
                                cold.remove(&mut views, t);
                            }
                            views
                        },
                    )
                },
            );
        }
    }
    group.finish();
}

/// Task starts per timed sample.
const STARTS_PER_SAMPLE: usize = 100;

/// A `worker-centric` scheduler for `metric` over one site holding
/// `store`, initialized with the whole queue pending or, with
/// `half_started`, every odd-id task started: the queue is drained
/// through ranked picks, then each even-id task is handed back as a lost
/// worker's. The coadd ids are shuffled against the sky, so about half of
/// any file's readers are then pending, as in mid-run.
fn warm_scheduler(
    workload: &Arc<Workload>,
    metric: WeightMetric,
    store: &SiteStore,
    half_started: bool,
) -> Box<dyn Scheduler> {
    let env = GridEnv {
        sites: 1,
        workers_per_site: 1,
        capacity_files: store.capacity(),
    };
    let mut sched: Box<dyn Scheduler> =
        Box::new(WorkerCentric::new(Arc::clone(workload), metric, 2, 0));
    sched.initialize(&env, std::slice::from_ref(store));
    if !half_started {
        return sched;
    }
    let worker = WorkerId::new(SiteId(0), 0);
    let mut started = Vec::new();
    while let Assignment::Run(t) = sched.on_worker_idle(worker, store) {
        started.push(t);
    }
    for t in started.into_iter().filter(|t| t.0 % 2 == 0) {
        sched.on_worker_lost(worker, Some(t));
    }
    sched
}

/// One task start's references at a warm site, as the engine's
/// `finish_batch` delivers them: each input's `r_i` bumped in the store,
/// then one [`Scheduler::on_files_referenced`] call through a trait
/// object. The site holds a warm 3000-file store, with the whole queue
/// pending (`rest`, `combined`) or half of it started ([`warm_scheduler`]:
/// `rest_half_started`, `combined_half_started`); the starts cycle over the
/// tasks whose inputs are all resident, so every reference is to a
/// resident file.
fn bench_task_start_refs(c: &mut Criterion) {
    let mut group = c.benchmark_group("task_start_refs");
    for &tasks in &[500u32, 2000, 6000] {
        let mut cfg = CoaddConfig::paper_6000();
        cfg.tasks = tasks;
        let workload = Arc::new(cfg.generate());
        for (metric, half) in [
            (WeightMetric::Rest, false),
            (WeightMetric::Combined, false),
            (WeightMetric::Rest, true),
            (WeightMetric::Combined, true),
        ] {
            let mut store = warm_store(&workload, 3000);
            let mut sched = warm_scheduler(&workload, metric, &store, half);
            let starts: Vec<_> = workload
                .tasks()
                .iter()
                .filter(|t| t.files().iter().all(|&f| store.contains(f)))
                .collect();
            assert!(!starts.is_empty(), "warm store holds whole tasks");
            let mut next = 0;
            let name = if half {
                format!("{metric}_half_started")
            } else {
                metric.to_string()
            };
            group.bench_with_input(BenchmarkId::new(name, tasks), &tasks, |b, _| {
                b.iter(|| {
                    for _ in 0..STARTS_PER_SAMPLE {
                        let files = starts[next].files();
                        next = (next + 1) % starts.len();
                        for &f in files {
                            store.record_task_reference(f);
                        }
                        sched.on_files_referenced(SiteId(0), files);
                    }
                })
            });
        }
    }
    group.finish();
}

/// File arrivals per timed sample.
const ARRIVALS_PER_SAMPLE: usize = 100;

/// One fetched file's arrival at a warm site, as the engine delivers it
/// after the store admits the file: one [`Scheduler::on_file_added`] call
/// through a trait object with the file's `r_i`. The site holds a warm
/// 3000-file store with half the queue started ([`warm_scheduler`]); every
/// sample starts from that state (the setup is not timed) and brings in
/// the next [`ARRIVALS_PER_SAMPLE`] non-resident coadd inputs in task
/// order, so most readers of an arriving file already overlap the site
/// and are re-marked rather than entering its rank.
fn bench_file_arrival(c: &mut Criterion) {
    let mut group = c.benchmark_group("file_arrival");
    for &tasks in &[500u32, 2000, 6000] {
        let mut cfg = CoaddConfig::paper_6000();
        cfg.tasks = tasks;
        let workload = Arc::new(cfg.generate());
        let store = warm_store(&workload, 3000);
        let mut arrivals: Vec<_> = workload
            .tasks()
            .iter()
            .flat_map(|t| t.files().iter().copied())
            .filter(|&f| !store.contains(f))
            .collect();
        let mut seen = vec![false; workload.file_count()];
        arrivals.retain(|f| !std::mem::replace(&mut seen[f.index()], true));
        arrivals.truncate(ARRIVALS_PER_SAMPLE);
        assert_eq!(arrivals.len(), ARRIVALS_PER_SAMPLE, "enough files to fetch");
        for metric in [WeightMetric::Rest, WeightMetric::Combined] {
            group.bench_with_input(
                BenchmarkId::new(metric.to_string(), tasks),
                &tasks,
                |b, _| {
                    b.iter_with_setup(
                        || warm_scheduler(&workload, metric, &store, true),
                        |mut sched| {
                            for &f in &arrivals {
                                sched.on_file_added(SiteId(0), f, 0);
                            }
                            sched
                        },
                    )
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
    bench_pick_vs_sites,
    bench_task_start_refs,
    bench_file_arrival,
    bench_storage_affinity_assignment
);
criterion_main!(benches);
