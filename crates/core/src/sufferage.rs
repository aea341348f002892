//! XSufferage-style data-aware baseline (Casanova et al. [5]).
//!
//! The storage-affinity paper ([14], this paper's baseline) positioned
//! itself against **XSufferage**, the cluster-level sufferage heuristic of
//! Casanova et al.: a task's *sufferage* is the difference between its
//! best and second-best cluster-level completion-time estimate; tasks that
//! would "suffer" most from not getting their best cluster are scheduled
//! first.
//!
//! The original heuristic needs completion-time estimates (CPU speeds and
//! forecast bandwidths). In the data-intensive setting of this paper those
//! estimates are dominated by data placement, so our reproduction uses the
//! natural data-aware instantiation: the *estimate* for (task, site) is
//! the site's overlap cardinality `|F_t|` (more local bytes → earlier
//! completion), and
//!
//! ```text
//! sufferage(t) = overlap(t, best site) − overlap(t, second-best site)
//! ```
//!
//! When a worker idles, it receives the highest-sufferage pending task
//! whose best site is the worker's own; if no pending task prefers this
//! site, the worker falls back to the task with the largest local overlap
//! (never idling, like XSufferage's MCT fallback). This is a *demand-
//! driven* scheduler — under the paper's taxonomy it sits between the two
//! camps: decisions happen at idle time (no premature decisions) but each
//! decision inspects **all** sites (`O(T·S)` with the incremental views,
//! `O(T·I·S)` naively), which is exactly the per-decision cost §4.4
//! attributes to task-centric strategies.
//!
//! In [`EvalMode::Incremental`] (the default) that per-decision cost goes
//! away: each task carries an ordered set of its **nonzero-overlap sites**
//! keyed `(overlap, ¬site)`, so a storage event re-files one `(task,
//! site)` entry in `O(log S)` and the `(best, second, best site)` triple
//! is read off the set's tail in `O(1)` — no all-sites rescan anywhere.
//! The triples feed two incrementally-maintained ordered structures — a
//! per-site *contest* set keyed by `(sufferage desc, id asc)` over the
//! pending tasks whose best site it is, and a per-site overlap
//! [`TaskRank`] for the fallback over a shared [`ColdRank`] (see
//! [`crate::index`]): a pool removal or requeue touches one contest entry,
//! the cold rank and the ranks of the few sites holding the task's files.
//! A decision then reads one set head, `O(log T)`; the [`EvalMode::Naive`]
//! scan is kept for validation and benchmarking and is property-tested to
//! pick identically.
//!
//! [`TaskRank`]: crate::index::TaskRank
//! [`ColdRank`]: crate::index::ColdRank

use std::collections::BTreeSet;
use std::sync::Arc;

use gridsched_storage::SiteStore;
use gridsched_telemetry::Telemetry;
use gridsched_workload::{FileId, TaskId, Workload};

use crate::ids::{GridEnv, SiteId, WorkerId};
use crate::index::{ColdRank, FileIndex, RankStats, SiteView};
use crate::pool::TaskPool;
use crate::scheduler::{Assignment, CompletionOutcome, EvalMode, Scheduler};
use crate::weight::WeightMetric;

/// Data-aware XSufferage-style scheduler.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use gridsched_core::{Scheduler, Sufferage};
/// use gridsched_workload::coadd::CoaddConfig;
///
/// let wl = Arc::new(CoaddConfig::small(0).generate());
/// let sched = Sufferage::new(wl);
/// assert_eq!(sched.name(), "xsufferage");
/// ```
pub struct Sufferage {
    workload: Arc<Workload>,
    pool: TaskPool,
    index: Arc<FileIndex>,
    views: Vec<SiteView>,
    /// The fallback ranks' shared zero-overlap side (no member in naive
    /// mode).
    cold: ColdRank,
    mode: EvalMode,
    /// Per-task ordered set of the sites with nonzero overlap, keyed
    /// `(overlap, u32::MAX − site)` so the tail yields the best-two in
    /// scan order: max overlap with ties to the lowest site id
    /// (incremental mode only; empty otherwise).
    site_rank: Vec<BTreeSet<(u32, u32)>>,
    /// Per-task `(best, second, best_site)` triples, maintained for every
    /// task (incremental mode only; empty otherwise).
    best: Vec<(u32, u32, u32)>,
    /// Per-site contest: pending tasks whose best site this is (with
    /// `best > 0`), ordered `(sufferage desc, id asc)` via the key
    /// `(u64::MAX − sufferage, id)`.
    contest: Vec<BTreeSet<(u64, u32)>>,
    completed: usize,
}

/// Reads `(best, second, best_site)` off a task's nonzero-overlap site
/// set — identical to the ascending-site scan: best = max overlap, ties to
/// the lowest site; second = next-largest overlap counting duplicates
/// (zero-overlap sites contribute the implicit floor of 0).
fn best_two_from(set: &BTreeSet<(u32, u32)>) -> (u32, u32, u32) {
    let mut tail = set.iter().rev();
    match tail.next() {
        None => (0, 0, 0),
        Some(&(best, inv_site)) => {
            let second = tail.next().map_or(0, |&(ov, _)| ov);
            (best, second, u32::MAX - inv_site)
        }
    }
}

impl Sufferage {
    /// Creates the scheduler over `workload`.
    #[must_use]
    pub fn new(workload: Arc<Workload>) -> Self {
        let tasks = workload.task_count();
        let index = Arc::new(FileIndex::build(&workload));
        Sufferage {
            workload,
            pool: TaskPool::full(tasks),
            cold: ColdRank::new(WeightMetric::Overlap, &index),
            index,
            views: Vec::new(),
            mode: EvalMode::default(),
            site_rank: Vec::new(),
            best: Vec::new(),
            contest: Vec::new(),
            completed: 0,
        }
    }

    /// Switches the evaluation path (see [`EvalMode`]; `Naive` means the
    /// per-decision `O(T·S)` scan over every site's cached overlap here —
    /// sufferage cannot probe remote stores directly). Call before
    /// [`Scheduler::initialize`].
    #[must_use]
    pub fn with_eval_mode(mut self, mode: EvalMode) -> Self {
        self.mode = mode;
        self
    }

    /// Best and second-best overlap of `task` across all sites, plus the
    /// best site's id (ties to the lower site id) — the `O(S)` scan the
    /// non-incremental modes use per decision.
    fn best_two_scan(&self, task: TaskId) -> (u32, u32, usize) {
        let mut best = 0u32;
        let mut second = 0u32;
        let mut best_site = 0usize;
        for (site, view) in self.views.iter().enumerate() {
            let ov = view.overlap(task);
            if ov > best {
                second = best;
                best = ov;
                best_site = site;
            } else if ov > second {
                second = ov;
            }
        }
        (best, second, best_site)
    }

    fn contest_key(best: u32, second: u32, task: u32) -> (u64, u32) {
        (u64::MAX - u64::from(best - second), task)
    }

    /// Drops `task` from its contest set, if it competes.
    fn contest_remove(&mut self, task: TaskId) {
        let (best, second, site) = self.best[task.index()];
        if best > 0 {
            self.contest[site as usize].remove(&Self::contest_key(best, second, task.0));
        }
    }

    /// (Re-)enters `task` into its contest set, if it competes.
    fn contest_insert(&mut self, task: TaskId) {
        let (best, second, site) = self.best[task.index()];
        if best > 0 {
            self.contest[site as usize].insert(Self::contest_key(best, second, task.0));
        }
    }

    /// One site's overlap of every task reading `file` moved by `delta`
    /// (+1 add, −1 evict): re-files the single `(task, site)` entry in
    /// each affected task's nonzero-overlap site set — `O(log S)` — and
    /// refreshes the triple off the set's tail, keeping contest membership
    /// in step. This replaces the all-sites best-two rescan: no other
    /// site's value moved, so no other entry needs touching.
    fn on_site_overlap_changed(&mut self, site: usize, file: FileId, delta: i32) {
        let index = Arc::clone(&self.index);
        let inv_site = u32::MAX - site as u32;
        for &t in index.tasks_of(file) {
            let task = TaskId(t);
            let new_ov = self.views[site].overlap(task);
            let old_ov = (i64::from(new_ov) - i64::from(delta)) as u32;
            let set = &mut self.site_rank[task.index()];
            if old_ov > 0 {
                set.remove(&(old_ov, inv_site));
            }
            if new_ov > 0 {
                set.insert((new_ov, inv_site));
            }
            let pending = self.pool.contains(task);
            if pending {
                self.contest_remove(task);
            }
            self.best[task.index()] = best_two_from(&self.site_rank[task.index()]);
            if pending {
                self.contest_insert(task);
            }
        }
    }

    /// The per-site views (empty where the strategy keeps none).
    #[cfg(test)]
    pub(crate) fn views(&self) -> &[SiteView] {
        &self.views
    }

    /// Removes an assigned/completed task from the incremental structures:
    /// its contest entry and its fallback-rank entries.
    fn pool_remove(&mut self, task: TaskId) {
        self.pool.remove(task);
        if self.mode == EvalMode::Incremental {
            self.contest_remove(task);
            self.cold.remove(&mut self.views, task);
        }
    }

    /// Requeues a task (fault recovery) into the incremental structures.
    fn pool_insert(&mut self, task: TaskId) {
        if self.pool.insert(task) && self.mode == EvalMode::Incremental {
            self.contest_insert(task);
            self.cold.insert(&mut self.views, task);
        }
    }

    /// The scan-mode pick (the pre-index algorithm, kept verbatim for
    /// validation and benchmarking).
    fn pick_scan(&self, my_site: usize) -> TaskId {
        let mut best_suff: Option<(u32, std::cmp::Reverse<TaskId>, TaskId)> = None;
        let mut best_local: Option<(u32, std::cmp::Reverse<TaskId>, TaskId)> = None;
        for t in self.pool.iter() {
            let (best, second, best_site) = self.best_two_scan(t);
            if best_site == my_site && best > 0 {
                let key = (best - second, std::cmp::Reverse(t), t);
                if best_suff.as_ref().is_none_or(|b| key > *b) {
                    best_suff = Some(key);
                }
            }
            let local = self.views[my_site].overlap(t);
            let key = (local, std::cmp::Reverse(t), t);
            if best_local.as_ref().is_none_or(|b| key > *b) {
                best_local = Some(key);
            }
        }
        best_suff
            .or(best_local)
            .map(|(_, _, t)| t)
            .expect("pool is non-empty")
    }
}

impl Scheduler for Sufferage {
    fn name(&self) -> String {
        "xsufferage".to_string()
    }

    fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        self.cold.set_stats(RankStats::attach(telemetry));
    }

    fn initialize(&mut self, env: &GridEnv, stores: &[SiteStore]) {
        assert_eq!(env.sites, stores.len(), "one store per site");
        let tasks = self.workload.task_count();
        self.views = (0..env.sites)
            .map(|s| SiteView::new(s, &self.index, WeightMetric::Overlap))
            .collect();
        if self.mode == EvalMode::Incremental {
            // Allocate the incremental structures *before* seeding so the
            // seed loop routes through the same sparse update path as the
            // run-time notifications. Empty stores ⇒ all-zero triples, so
            // initialization is O(T), not O(T·S).
            self.site_rank = vec![BTreeSet::new(); tasks];
            self.best = vec![(0, 0, 0); tasks];
            self.contest = vec![BTreeSet::new(); env.sites];
        }
        for (site, store) in stores.iter().enumerate() {
            for f in store.resident() {
                let rc = store.ref_count(f);
                self.views[site].on_file_added(&self.index, &mut self.cold, f, rc);
                if self.mode == EvalMode::Incremental {
                    self.on_site_overlap_changed(site, f, 1);
                }
            }
        }
        if self.mode == EvalMode::Incremental {
            self.cold.admit_all(&mut self.views, &self.pool);
        }
    }

    fn on_worker_idle(&mut self, worker: WorkerId, _store: &SiteStore) -> Assignment {
        if self.pool.is_empty() {
            return Assignment::Finished;
        }
        let my_site = worker.site.index();
        // Highest sufferage among tasks whose best site is mine; fallback:
        // highest local overlap.
        let task = if self.mode == EvalMode::Incremental {
            match self.contest[my_site].first() {
                Some(&(_, t)) => TaskId(t),
                None => self.views[my_site]
                    .top_overlap_where(&self.cold, |_| true)
                    .expect("pool is non-empty"),
            }
        } else {
            self.pick_scan(my_site)
        };
        self.pool_remove(task);
        Assignment::Run(task)
    }

    fn on_task_complete(&mut self, _worker: WorkerId, _task: TaskId) -> CompletionOutcome {
        self.completed += 1;
        CompletionOutcome::default()
    }

    fn on_worker_lost(&mut self, _worker: WorkerId, in_flight: Option<TaskId>) -> bool {
        // No replication here either: a crashed execution is the only
        // copy, so the task rejoins the pending pool.
        match in_flight {
            Some(task) => {
                self.pool_insert(task);
                true
            }
            None => false,
        }
    }

    fn on_file_added(&mut self, site: SiteId, file: FileId, ref_count: u32) {
        if let Some(view) = self.views.get_mut(site.index()) {
            view.on_file_added(&self.index, &mut self.cold, file, ref_count);
            if self.mode == EvalMode::Incremental {
                self.on_site_overlap_changed(site.index(), file, 1);
            }
        }
    }

    fn on_file_evicted(&mut self, site: SiteId, file: FileId, ref_count: u32) {
        if let Some(view) = self.views.get_mut(site.index()) {
            view.on_file_evicted(&self.index, &mut self.cold, file, ref_count);
            if self.mode == EvalMode::Incremental {
                self.on_site_overlap_changed(site.index(), file, -1);
            }
        }
    }

    fn unfinished(&self) -> usize {
        self.workload.task_count() - self.completed
    }
}

impl std::fmt::Debug for Sufferage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sufferage")
            .field("pending", &self.pool.len())
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
                TaskSpec::new(TaskId(1), vec![FileId(2), FileId(3)], 1.0),
                TaskSpec::new(TaskId(2), vec![FileId(0), FileId(2)], 1.0),
            ],
            4,
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

    #[test]
    fn prefers_high_sufferage_task_at_its_best_site() {
        let mut stores: Vec<SiteStore> = (0..2)
            .map(|_| SiteStore::new(10, EvictionPolicy::Lru))
            .collect();
        // Site 0 holds {0,1}: task 0 overlap (2,0) → sufferage 2.
        //                      task 2 overlap (1,1) → sufferage 0.
        // Site 1 holds {2}:    task 1 overlap (0,1), best site 1.
        stores[0].insert(FileId(0));
        stores[0].insert(FileId(1));
        stores[1].insert(FileId(2));
        let mut sched = Sufferage::new(wl());
        sched.initialize(&env(2), &stores);
        let w0 = WorkerId::new(SiteId(0), 0);
        match sched.on_worker_idle(w0, &stores[0]) {
            Assignment::Run(t) => assert_eq!(t, TaskId(0), "task 0 suffers most without site 0"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn falls_back_to_local_overlap() {
        let mut stores: Vec<SiteStore> = (0..2)
            .map(|_| SiteStore::new(10, EvictionPolicy::Lru))
            .collect();
        // Only site 1 holds data; a worker at site 0 must still get a task.
        stores[1].insert(FileId(2));
        let mut sched = Sufferage::new(wl());
        sched.initialize(&env(2), &stores);
        let w0 = WorkerId::new(SiteId(0), 0);
        match sched.on_worker_idle(w0, &stores[0]) {
            Assignment::Run(_) => {}
            other => panic!("worker must not idle: {other:?}"),
        }
    }

    #[test]
    fn incremental_matches_scan_under_churn() {
        // Drive a scan-mode and an incremental-mode instance through the
        // same interleaving of storage churn, idle requests and a requeue;
        // every assignment must match.
        let wl = Arc::new(CoaddConfig_like());
        let env = env(3);
        let stores_init: Vec<SiteStore> = (0..3)
            .map(|_| SiteStore::new(4, EvictionPolicy::Lru))
            .collect();
        let mut scan = Sufferage::new(Arc::clone(&wl)).with_eval_mode(EvalMode::Naive);
        let mut inc = Sufferage::new(wl);
        scan.initialize(&env, &stores_init);
        inc.initialize(&env, &stores_init);
        let mut stores = stores_init;
        let file_events: &[(usize, u32)] = &[(0, 0), (1, 2), (0, 3), (2, 1), (1, 4), (0, 5)];
        let mut assigned: Vec<(WorkerId, TaskId)> = Vec::new();
        for (step, &(site, f)) in file_events.iter().enumerate() {
            let f = FileId(f);
            if !stores[site].contains(f) {
                let evicted = stores[site].insert(f);
                for e in evicted {
                    let rc = stores[site].ref_count(e);
                    scan.on_file_evicted(SiteId(site as u32), e, rc);
                    inc.on_file_evicted(SiteId(site as u32), e, rc);
                }
                let rc = stores[site].ref_count(f);
                scan.on_file_added(SiteId(site as u32), f, rc);
                inc.on_file_added(SiteId(site as u32), f, rc);
            }
            let w = WorkerId::new(SiteId((step % 3) as u32), 0);
            let a = scan.on_worker_idle(w, &stores[w.site.index()]);
            let b = inc.on_worker_idle(w, &stores[w.site.index()]);
            assert_eq!(a, b, "step {step}");
            if let Assignment::Run(t) = a {
                assigned.push((w, t));
            }
            // Inject one crash/requeue mid-sequence.
            if step == 2 {
                let (cw, ct) = assigned.pop().expect("something assigned");
                assert!(scan.on_worker_lost(cw, Some(ct)));
                assert!(inc.on_worker_lost(cw, Some(ct)));
            }
        }
        // Drain both to completion identically.
        let w = WorkerId::new(SiteId(0), 0);
        loop {
            let a = scan.on_worker_idle(w, &stores[0]);
            let b = inc.on_worker_idle(w, &stores[0]);
            assert_eq!(a, b);
            match a {
                Assignment::Run(t) => {
                    scan.on_task_complete(w, t);
                    inc.on_task_complete(w, t);
                }
                _ => break,
            }
        }
        for (w, t) in assigned {
            scan.on_task_complete(w, t);
            inc.on_task_complete(w, t);
        }
        assert_eq!(scan.unfinished(), inc.unfinished());
    }

    // A slightly richer workload than `wl()` for the equivalence test.
    #[allow(non_snake_case)]
    fn CoaddConfig_like() -> Workload {
        Workload::new(
            vec![
                TaskSpec::new(TaskId(0), vec![FileId(0), FileId(1)], 1.0),
                TaskSpec::new(TaskId(1), vec![FileId(1), FileId(2)], 1.0),
                TaskSpec::new(TaskId(2), vec![FileId(2), FileId(3)], 1.0),
                TaskSpec::new(TaskId(3), vec![FileId(3), FileId(4)], 1.0),
                TaskSpec::new(TaskId(4), vec![FileId(4), FileId(5)], 1.0),
                TaskSpec::new(TaskId(5), vec![FileId(0), FileId(5)], 1.0),
            ],
            6,
            1.0,
            "w",
        )
    }

    #[test]
    fn drains_and_finishes() {
        let stores: Vec<SiteStore> = (0..2)
            .map(|_| SiteStore::new(10, EvictionPolicy::Lru))
            .collect();
        let mut sched = Sufferage::new(wl());
        sched.initialize(&env(2), &stores);
        let w = WorkerId::new(SiteId(0), 0);
        let mut got = Vec::new();
        for _ in 0..3 {
            match sched.on_worker_idle(w, &stores[0]) {
                Assignment::Run(t) => {
                    got.push(t);
                    sched.on_task_complete(w, t);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        got.sort();
        assert_eq!(got, vec![TaskId(0), TaskId(1), TaskId(2)]);
        assert_eq!(sched.on_worker_idle(w, &stores[0]), Assignment::Finished);
        assert_eq!(sched.unfinished(), 0);
    }
}
