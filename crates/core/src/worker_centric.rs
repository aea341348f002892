//! The paper's basic worker-centric scheduling algorithm (Figure 2).
//!
//! ```text
//! while(forever):
//!     req = GetNextRequest()
//!     if taskQueue is empty: wait for a task
//!     for each task t in taskQueue: CalculateWeight(t)
//!     t = ChooseTask(n)
//!     ReturnRequest(t)
//! ```
//!
//! Each idle worker's request triggers one full weighing of the pending
//! queue against that worker's site storage, then a `ChooseTask(n)`
//! selection. With `n = 1` this yields the deterministic `overlap`, `rest`
//! and `combined` algorithms of §5.3; with `n = 2` the randomized `rest.2`
//! and `combined.2`.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use gridsched_des::rng::{derive_seed, Stream};
use gridsched_storage::SiteStore;
use gridsched_workload::{FileId, TaskId, Workload};

use gridsched_telemetry::Telemetry;

use crate::choose::ChooseTask;
use crate::ids::{GridEnv, SiteId, WorkerId};
use crate::index::{enable_ranks, ComboAggregates, FileIndex, PendingLog, RankStats, SiteView};
use crate::pool::TaskPool;
use crate::scheduler::{Assignment, CompletionOutcome, EvalMode, Scheduler};
use crate::weight::{weigh_all_naive, WeightMetric};

/// Worker-centric scheduler: weight metric + `ChooseTask(n)`.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use gridsched_core::{Scheduler, WeightMetric, WorkerCentric};
/// use gridsched_workload::coadd::CoaddConfig;
///
/// let wl = Arc::new(CoaddConfig::small(0).generate());
/// let sched = WorkerCentric::new(wl, WeightMetric::Rest, 2, 42);
/// assert_eq!(sched.name(), "rest.2");
/// assert_eq!(sched.unfinished(), 200);
/// ```
pub struct WorkerCentric {
    workload: Arc<Workload>,
    metric: WeightMetric,
    chooser: ChooseTask,
    mode: EvalMode,
    pool: TaskPool,
    index: Arc<FileIndex>,
    /// Per-site ranked views (incremental mode only; empty in naive mode,
    /// which probes the store on every request).
    views: Vec<SiteView>,
    /// Become-live journal for the lazy per-site ranks (incremental mode):
    /// requeues append here instead of broadcasting into every view.
    log: PendingLog,
    /// Exact `combined` normalisers, maintained sparsely (incremental mode
    /// with [`WeightMetric::Combined`] only).
    combo: Option<ComboAggregates>,
    rng: StdRng,
    running: usize,
    completed: usize,
    /// Hot-path instruments, installed into every view at initialize time
    /// (inert unless [`Scheduler::attach_telemetry`] ran).
    stats: RankStats,
}

impl WorkerCentric {
    /// Creates a worker-centric scheduler over `workload` with the given
    /// metric and `ChooseTask(n)` parameter, seeding its randomization from
    /// `seed`.
    #[must_use]
    pub fn new(workload: Arc<Workload>, metric: WeightMetric, n: usize, seed: u64) -> Self {
        let index = Arc::new(FileIndex::build(&workload));
        let tasks = workload.task_count();
        WorkerCentric {
            workload,
            metric,
            chooser: ChooseTask::new(n),
            mode: EvalMode::default(),
            pool: TaskPool::full(tasks),
            index,
            views: Vec::new(),
            log: PendingLog::new(),
            combo: None,
            rng: StdRng::seed_from_u64(derive_seed(seed, Stream::Scheduler)),
            running: 0,
            completed: 0,
            stats: RankStats::default(),
        }
    }

    /// Creates a scheduler sharing a pre-built [`FileIndex`] (avoids
    /// rebuilding the index when sweeping strategies over one workload).
    #[must_use]
    pub fn with_index(
        workload: Arc<Workload>,
        index: Arc<FileIndex>,
        metric: WeightMetric,
        n: usize,
        seed: u64,
    ) -> Self {
        let tasks = workload.task_count();
        WorkerCentric {
            workload,
            metric,
            chooser: ChooseTask::new(n),
            mode: EvalMode::default(),
            pool: TaskPool::full(tasks),
            index,
            views: Vec::new(),
            log: PendingLog::new(),
            combo: None,
            rng: StdRng::seed_from_u64(derive_seed(seed, Stream::Scheduler)),
            running: 0,
            completed: 0,
            stats: RankStats::default(),
        }
    }

    /// Switches the weight-evaluation path (see [`EvalMode`]). Call before
    /// [`Scheduler::initialize`].
    #[must_use]
    pub fn with_eval_mode(mut self, mode: EvalMode) -> Self {
        self.mode = mode;
        self
    }

    /// The metric in use.
    #[must_use]
    pub fn metric(&self) -> WeightMetric {
        self.metric
    }

    /// The `ChooseTask(n)` parameter.
    #[must_use]
    pub fn choose_n(&self) -> usize {
        self.chooser.n()
    }

    /// Number of pending (unassigned) tasks.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.pool.len()
    }

    /// Removes an assigned task from the pending pool. `O(1)` plus the
    /// sparse `combined`-normaliser sweep: no rank is touched — the ranks'
    /// entries go stale in place and are repaired lazily at read time.
    fn pool_remove(&mut self, task: TaskId) {
        self.pool.remove(task);
        if let Some(combo) = self.combo.as_mut() {
            combo.on_pool_remove(
                &self.index,
                task,
                self.workload.task(task).files(),
                &self.views,
            );
        }
    }

    /// Requeues a task (fault recovery): `O(1)` journal append plus the
    /// sparse normaliser sweep; each view re-admits it on its next read.
    fn pool_insert(&mut self, task: TaskId) {
        self.pool.insert(task);
        if let Some(combo) = self.combo.as_mut() {
            combo.on_pool_insert(
                &self.index,
                task,
                self.workload.task(task).files(),
                &self.views,
            );
        }
        if self.mode == EvalMode::Incremental {
            self.log.record(task, &mut self.views);
        }
    }
}

impl Scheduler for WorkerCentric {
    fn name(&self) -> String {
        if self.chooser.is_deterministic() {
            self.metric.to_string()
        } else {
            format!("{}.{}", self.metric, self.chooser.n())
        }
    }

    fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        self.stats = RankStats::attach(telemetry);
    }

    fn initialize(&mut self, env: &GridEnv, stores: &[SiteStore]) {
        assert_eq!(env.sites, stores.len(), "one store per site");
        if self.mode == EvalMode::Naive {
            // The reference path probes the store on every request and
            // shares no state with the incremental one.
            return;
        }
        self.views = (0..env.sites)
            .map(|_| {
                let mut v = SiteView::new(self.workload.task_count());
                v.set_stats(self.stats.clone());
                v
            })
            .collect();
        if self.metric == WeightMetric::Combined {
            self.combo = Some(ComboAggregates::new(&self.index, &self.pool, env.sites));
        }
        // Seed views (and normalisers) from any pre-populated storage
        // (normally empty).
        for (s, store) in stores.iter().enumerate() {
            for f in store.resident() {
                let view = &mut self.views[s];
                view.on_file_added(&self.index, f, store.ref_count(f));
                if let Some(combo) = self.combo.as_mut() {
                    combo.on_file_added(s, &self.index, view, f, store.ref_count(f), &self.pool);
                }
            }
        }
        enable_ranks(&mut self.views, self.metric, &self.index, &self.pool);
    }

    fn on_worker_idle(&mut self, worker: WorkerId, store: &SiteStore) -> Assignment {
        if self.pool.is_empty() {
            // Worker-centric scheduling never replicates; once the queue is
            // drained this worker is done.
            return Assignment::Finished;
        }
        let task = if self.mode == EvalMode::Incremental {
            let totals = self.combo.as_ref().map(|c| c.totals(worker.site.index()));
            let pool = &self.pool;
            let view = &mut self.views[worker.site.index()];
            view.sync_pending(&self.index, &self.log, |t| pool.contains(t));
            view.pick_ranked(&self.chooser, &mut self.rng, |t| pool.contains(t), totals)
                .expect("pool is non-empty")
        } else {
            let weights = weigh_all_naive(self.metric, &self.workload, &self.pool, store);
            self.chooser
                .pick(&weights, &mut self.rng)
                .expect("pool is non-empty")
        };
        self.pool_remove(task);
        self.running += 1;
        Assignment::Run(task)
    }

    fn on_task_complete(&mut self, _worker: WorkerId, _task: TaskId) -> CompletionOutcome {
        self.running -= 1;
        self.completed += 1;
        CompletionOutcome::default()
    }

    fn on_worker_lost(&mut self, _worker: WorkerId, in_flight: Option<TaskId>) -> bool {
        // Worker-centric schedulers never replicate, so a crashed
        // execution is always the only copy: requeue it.
        match in_flight {
            Some(task) => {
                self.pool_insert(task);
                self.running -= 1;
                true
            }
            None => false,
        }
    }

    fn on_file_added(&mut self, site: SiteId, file: FileId, ref_count: u32) {
        if let Some(view) = self.views.get_mut(site.index()) {
            let pool = &self.pool;
            view.on_file_added_pruning(&self.index, file, ref_count, |t| pool.contains(t));
            if let Some(combo) = self.combo.as_mut() {
                combo.on_file_added(site.index(), &self.index, view, file, ref_count, &self.pool);
            }
        }
    }

    fn on_file_evicted(&mut self, site: SiteId, file: FileId, ref_count: u32) {
        if let Some(view) = self.views.get_mut(site.index()) {
            let pool = &self.pool;
            view.on_file_evicted_pruning(&self.index, file, ref_count, |t| pool.contains(t));
            if let Some(combo) = self.combo.as_mut() {
                combo.on_file_evicted(site.index(), &self.index, view, file, ref_count, &self.pool);
            }
        }
    }

    fn on_task_reference(&mut self, site: SiteId, file: FileId) {
        if let Some(view) = self.views.get_mut(site.index()) {
            let pool = &self.pool;
            view.on_task_reference_pruning(&self.index, file, |t| pool.contains(t));
            if let Some(combo) = self.combo.as_mut() {
                combo.on_task_reference(site.index(), &self.index, file, &self.pool);
            }
        }
    }

    fn unfinished(&self) -> usize {
        self.workload.task_count() - self.completed
    }
}

impl std::fmt::Debug for WorkerCentric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerCentric")
            .field("metric", &self.metric)
            .field("n", &self.chooser.n())
            .field("pending", &self.pool.len())
            .field("running", &self.running)
            .field("completed", &self.completed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsched_storage::EvictionPolicy;
    use gridsched_workload::TaskSpec;

    fn wl() -> Arc<Workload> {
        Arc::new(Workload::new(
            vec![
                TaskSpec::new(TaskId(0), vec![FileId(0), FileId(1)], 1.0),
                TaskSpec::new(TaskId(1), vec![FileId(2)], 1.0),
                TaskSpec::new(TaskId(2), vec![FileId(0), FileId(2)], 1.0),
            ],
            3,
            1.0,
            "w",
        ))
    }

    fn env(sites: usize) -> GridEnv {
        GridEnv {
            sites,
            workers_per_site: 1,
            capacity_files: 10,
        }
    }

    fn stores(n: usize) -> Vec<SiteStore> {
        (0..n)
            .map(|_| SiteStore::new(10, EvictionPolicy::Lru))
            .collect()
    }

    #[test]
    fn names_match_paper() {
        assert_eq!(
            WorkerCentric::new(wl(), WeightMetric::Overlap, 1, 0).name(),
            "overlap"
        );
        assert_eq!(
            WorkerCentric::new(wl(), WeightMetric::Rest, 2, 0).name(),
            "rest.2"
        );
        assert_eq!(
            WorkerCentric::new(wl(), WeightMetric::Combined, 2, 0).name(),
            "combined.2"
        );
    }

    #[test]
    fn prefers_local_overlap() {
        let mut sched = WorkerCentric::new(wl(), WeightMetric::Overlap, 1, 0);
        let mut st = stores(1);
        // Site 0 holds files {0,1} → task 0 has overlap 2, task 2 overlap 1.
        st[0].insert(FileId(0));
        st[0].insert(FileId(1));
        sched.initialize(&env(1), &st);
        let w = WorkerId::new(SiteId(0), 0);
        match sched.on_worker_idle(w, &st[0]) {
            Assignment::Run(t) => assert_eq!(t, TaskId(0)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rest_prefers_fewest_missing() {
        let mut sched = WorkerCentric::new(wl(), WeightMetric::Rest, 1, 0);
        let mut st = stores(1);
        // Files {0}: task0 misses 1, task1 misses 1, task2 misses 1... make
        // task1 fully resident instead.
        st[0].insert(FileId(2));
        sched.initialize(&env(1), &st);
        let w = WorkerId::new(SiteId(0), 0);
        match sched.on_worker_idle(w, &st[0]) {
            Assignment::Run(t) => assert_eq!(t, TaskId(1), "task 1 needs zero transfers"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn drains_pool_then_finishes() {
        let mut sched = WorkerCentric::new(wl(), WeightMetric::Rest, 1, 0);
        let st = stores(1);
        sched.initialize(&env(1), &st);
        let w = WorkerId::new(SiteId(0), 0);
        let mut got = Vec::new();
        for _ in 0..3 {
            match sched.on_worker_idle(w, &st[0]) {
                Assignment::Run(t) => {
                    got.push(t);
                    sched.on_task_complete(w, t);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        got.sort();
        assert_eq!(got, vec![TaskId(0), TaskId(1), TaskId(2)]);
        assert_eq!(sched.on_worker_idle(w, &st[0]), Assignment::Finished);
        assert_eq!(sched.unfinished(), 0);
    }

    #[test]
    fn all_eval_modes_agree_end_to_end() {
        for metric in [
            WeightMetric::Overlap,
            WeightMetric::Rest,
            WeightMetric::Combined,
        ] {
            for n in [1usize, 2] {
                let mut scheds: Vec<WorkerCentric> = [EvalMode::Incremental, EvalMode::Naive]
                    .into_iter()
                    .map(|mode| WorkerCentric::new(wl(), metric, n, 7).with_eval_mode(mode))
                    .collect();
                let mut st = stores(2);
                st[1].insert(FileId(0));
                for s in &mut scheds {
                    s.initialize(&env(2), &st);
                }
                let w = WorkerId::new(SiteId(1), 0);
                for _ in 0..4 {
                    let picks: Vec<Assignment> = scheds
                        .iter_mut()
                        .map(|s| s.on_worker_idle(w, &st[1]))
                        .collect();
                    assert_eq!(picks[0], picks[1], "metric {metric} n {n}");
                    if let Assignment::Run(t) = picks[0] {
                        for s in &mut scheds {
                            s.on_task_complete(w, t);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn incremental_survives_requeue() {
        let mut sched = WorkerCentric::new(wl(), WeightMetric::Rest, 1, 0);
        let st = stores(1);
        sched.initialize(&env(1), &st);
        let w = WorkerId::new(SiteId(0), 0);
        let Assignment::Run(t) = sched.on_worker_idle(w, &st[0]) else {
            panic!("expected work");
        };
        assert!(sched.on_worker_lost(w, Some(t)), "orphaned task requeues");
        let Assignment::Run(t2) = sched.on_worker_idle(w, &st[0]) else {
            panic!("requeued task must be assignable");
        };
        assert_eq!(t, t2, "same deterministic pick after requeue");
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut sched = WorkerCentric::new(wl(), WeightMetric::Rest, 2, seed);
            let st = stores(1);
            sched.initialize(&env(1), &st);
            let w = WorkerId::new(SiteId(0), 0);
            let mut order = Vec::new();
            while let Assignment::Run(t) = sched.on_worker_idle(w, &st[0]) {
                order.push(t);
                sched.on_task_complete(w, t);
            }
            order
        };
        assert_eq!(run(5), run(5));
    }
}
