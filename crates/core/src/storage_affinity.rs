//! Task-centric **storage affinity** baseline (Santos-Neto et al. [14]).
//!
//! As described in §3.1 of the paper:
//!
//! > "With task replication, the scheduler first distributes its tasks
//! > according to the overlap cardinality. Once the initial assigning is
//! > done, it waits until at least one worker becomes idle. Then the
//! > scheduler picks a task already assigned to a worker and replicates it
//! > to the idle worker. If one of the workers finishes the task, the other
//! > cancels the task. The process is repeated whenever there is an idle
//! > worker."
//!
//! Concretely:
//!
//! * **Initial assignment** (task-centric, up-front): tasks are visited in
//!   id order; each goes to the site with the largest *predicted* overlap —
//!   the site's storage contents as the scheduler expects them to be, i.e.
//!   current contents plus the inputs of tasks already queued there,
//!   FIFO-truncated at the storage capacity. This prediction is exactly the
//!   **premature scheduling decision** of §3.1: by execution time the real
//!   storage may long have evicted those files. Per-site assignment budgets
//!   keep queue *lengths* balanced (ties go to the least-loaded site), but
//!   queue *durations* stay unbalanced because worker speeds differ — the
//!   residual imbalance that task replication then mitigates.
//! * **Execution**: each worker drains its own queue (skipping tasks a
//!   replica already finished).
//! * **Replication**: an idle worker with an empty queue receives a replica
//!   of a *task already assigned to another worker* — queued or running —
//!   choosing the one with the largest overlap against the idle worker's
//!   **actual** current site storage; the first completion cancels the
//!   other copies (the owner simply skips a queued task a replica already
//!   finished). Replication is what mitigates both the unbalanced
//!   assignment and the premature decisions, exactly as §3.1 describes.
//!
//! The assignment phase costs `O(T·I·S)` — the complexity the paper quotes
//! for task-centric strategies in §4.4.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use gridsched_storage::{FileMask, FileSet, SiteStore};
use gridsched_telemetry::{Counter, Telemetry};
use gridsched_workload::{FileId, TaskId, Workload};

use crate::control::ControlDirective;
use crate::ids::{GridEnv, SiteId, WorkerId};
use crate::index::{ColdRank, FileIndex, RankStats, SiteView};
use crate::pool::TaskPool;
use crate::scheduler::{Assignment, CompletionOutcome, EvalMode, ReplicaThrottle, Scheduler};
use crate::weight::WeightMetric;

/// FIFO-truncated prediction of a site's future storage contents.
///
/// Residency is a dense [`FileSet`] bitset, so the assignment phase's
/// per-(task, site) overlap probe is AND+popcount against the task's
/// pre-lowered [`FileMask`] instead of `|t|` hash probes.
#[derive(Debug, Clone)]
struct VirtualStore {
    capacity: usize,
    resident: FileSet,
    order: VecDeque<FileId>,
}

impl VirtualStore {
    fn new(capacity: usize) -> Self {
        VirtualStore {
            capacity,
            resident: FileSet::new(),
            order: VecDeque::new(),
        }
    }

    fn overlap(&self, mask: &FileMask) -> usize {
        mask.overlap(&self.resident)
    }

    fn admit(&mut self, files: &[FileId]) {
        for &f in files {
            if self.resident.insert(f) {
                self.order.push_back(f);
                while self.order.len() > self.capacity {
                    let victim = self.order.pop_front().expect("non-empty");
                    self.resident.remove(victim);
                }
            }
        }
    }
}

/// Task-centric storage-affinity scheduler with task replication.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use gridsched_core::{Scheduler, StorageAffinity};
/// use gridsched_workload::coadd::CoaddConfig;
///
/// let wl = Arc::new(CoaddConfig::small(0).generate());
/// let sched = StorageAffinity::new(wl);
/// assert_eq!(sched.name(), "storage-affinity");
/// ```
pub struct StorageAffinity {
    workload: Arc<Workload>,
    /// Budget slack: a site may receive up to `slack × T/S` tasks. The
    /// original heuristic has no balance constraint at all (unbalanced
    /// assignment is its documented weakness); the cap only prevents the
    /// fully-degenerate everything-on-one-site outcome of a cold start.
    budget_slack: f64,
    workers_per_site: usize,
    /// Per-worker (flat index) task queues, fixed at initialization.
    queues: Vec<VecDeque<TaskId>>,
    /// Tasks whose execution completed (possibly via a replica).
    done: Vec<bool>,
    /// Tasks not yet completed anywhere (replication candidates).
    pending: TaskPool,
    /// task → workers currently executing it (primary first).
    running: HashMap<TaskId, Vec<WorkerId>>,
    /// Inverted index + per-site overlap-ordered priority indexes for
    /// replica selection against *actual* storage contents (incremental
    /// mode; `views` stays empty in naive mode, which probes the store).
    index: Arc<FileIndex>,
    views: Vec<SiteView>,
    /// The rank-live tasks — pending and below the replica cap — at
    /// zero-overlap coordinates, shared by the views (no member in naive
    /// mode).
    cold: ColdRank,
    mode: EvalMode,
    completed: usize,
    initialized: bool,
    /// Replica fan-out bounds; [`ReplicaThrottle::none`] reproduces the
    /// unthrottled paper behaviour byte for byte (the bookkeeping below is
    /// only maintained while a bound is active).
    throttle: ReplicaThrottle,
    /// Active replica executions: worker → the task it replicates.
    replica_at: HashMap<WorkerId, TaskId>,
    /// Concurrent replica executions per task. A task reaching the cap
    /// leaves the ranks — the cold rank and the few site ranks holding
    /// its files — and rejoins them when it drops below the cap again.
    task_replicas: Vec<u32>,
    /// Concurrent replica executions launched by each site's workers.
    site_inflight: Vec<u32>,
    /// `throttle.admits` — replica executions launched.
    admits: Counter,
    /// `throttle.parks` — idle workers parked by a saturated site budget.
    parks: Counter,
    /// `throttle.releases` — replica slots released (won, cancelled, or
    /// fault-killed executions).
    releases: Counter,
}

impl StorageAffinity {
    /// Creates the scheduler; assignment happens at
    /// [`Scheduler::initialize`].
    #[must_use]
    pub fn new(workload: Arc<Workload>) -> Self {
        let tasks = workload.task_count();
        let index = Arc::new(FileIndex::build(&workload));
        StorageAffinity {
            workload,
            budget_slack: 2.0,
            workers_per_site: 0,
            queues: Vec::new(),
            done: vec![false; tasks],
            pending: TaskPool::full(tasks),
            running: HashMap::new(),
            cold: ColdRank::new(WeightMetric::Overlap, &index),
            index,
            views: Vec::new(),
            mode: EvalMode::default(),
            completed: 0,
            initialized: false,
            throttle: ReplicaThrottle::none(),
            replica_at: HashMap::new(),
            task_replicas: vec![0; tasks],
            site_inflight: Vec::new(),
            admits: Counter::disabled(),
            parks: Counter::disabled(),
            releases: Counter::disabled(),
        }
    }

    /// Switches the replica-selection path (see [`EvalMode`]): `Naive`
    /// probes the idle worker's store directly (`O(T·I)`) and keeps no
    /// per-site view, `Incremental` (default) reads the overlap-ordered
    /// priority index (`O(log T)`). Call before [`Scheduler::initialize`].
    #[must_use]
    pub fn with_eval_mode(mut self, mode: EvalMode) -> Self {
        self.mode = mode;
        self
    }

    /// Bounds speculative replica fan-out (see [`ReplicaThrottle`]). The
    /// default — no bounds — is byte-identical to the paper's unthrottled
    /// behaviour. Call before [`Scheduler::initialize`].
    #[must_use]
    pub fn with_throttle(mut self, throttle: ReplicaThrottle) -> Self {
        self.throttle = throttle;
        self
    }

    /// Overrides the assignment budget slack (see the field docs).
    ///
    /// # Panics
    ///
    /// Panics if `slack < 1.0` (a slack below 1 cannot fit all tasks).
    #[must_use]
    pub fn with_budget_slack(mut self, slack: f64) -> Self {
        assert!(slack >= 1.0, "budget slack must be >= 1.0");
        self.budget_slack = slack;
        self
    }

    /// The queue assigned to `worker` (test/diagnostic accessor).
    #[must_use]
    pub fn queue_of(&self, worker: WorkerId) -> &VecDeque<TaskId> {
        &self.queues[worker.flat_index(self.workers_per_site)]
    }

    fn pop_own_queue(&mut self, worker: WorkerId) -> Option<TaskId> {
        let q = &mut self.queues[worker.flat_index(self.workers_per_site)];
        while let Some(t) = q.pop_front() {
            if !self.done[t.index()] {
                return Some(t);
            }
        }
        None
    }

    /// Whether `task` already runs its full complement of replicas.
    fn capped(&self, task: TaskId) -> bool {
        self.throttle
            .replica_cap
            .is_some_and(|cap| self.task_replicas[task.index()] >= cap)
    }

    /// Picks the unfinished task (queued or running, assigned to some other
    /// worker) with the largest overlap against the idle worker's current
    /// site storage. Tasks at their replica cap are skipped — in
    /// incremental mode they are out of the ranks altogether.
    fn pick_replica(&mut self, worker: WorkerId, store: &SiteStore) -> Option<TaskId> {
        match self.mode {
            // O(log T): walk the overlap-ordered index until a task not
            // already executing at this very worker appears. The ranks
            // hold only pending tasks below the cap; "already running
            // here" is transient, so it is a `keep` filter.
            EvalMode::Incremental => {
                let running = &self.running;
                self.views[worker.site.index()].top_overlap_where(&self.cold, |t| {
                    !running
                        .get(&t)
                        .is_some_and(|workers| workers.contains(&worker))
                })
            }
            // O(T·I): probe the store directly, the paper's task-centric
            // per-decision cost.
            EvalMode::Naive => {
                let excluded = |t: &TaskId| {
                    self.capped(*t)
                        || self
                            .running
                            .get(t)
                            .is_some_and(|workers| workers.contains(&worker))
                };
                self.pending
                    .iter()
                    .filter(|t| !excluded(t))
                    .map(|t| {
                        let files = self.workload.task(t).files();
                        (store.overlap(files) as u32, std::cmp::Reverse(t))
                    })
                    .max()
                    .map(|(_, std::cmp::Reverse(t))| t)
            }
        }
    }

    /// The per-site views (empty where the strategy keeps none).
    #[cfg(test)]
    pub(crate) fn views(&self) -> &[SiteView] {
        &self.views
    }

    /// Marks a task completed: out of the pending pool and the ranks.
    fn pool_remove(&mut self, task: TaskId) {
        self.pending.remove(task);
        self.sync_rank(task);
    }

    /// Puts `task` in the ranks exactly while it is rank-live — pending
    /// and below the replica cap (incremental mode only). A no-op unless
    /// its liveness changed.
    fn sync_rank(&mut self, task: TaskId) {
        if self.mode != EvalMode::Incremental {
            return;
        }
        if self.pending.contains(task) && !self.capped(task) {
            self.cold.insert(&mut self.views, task);
        } else {
            self.cold.remove(&mut self.views, task);
        }
    }

    /// Throttle bookkeeping for a replica execution starting at `worker`.
    /// A task reaching its cap leaves the ranks.
    fn note_replica_started(&mut self, worker: WorkerId, task: TaskId) {
        if !self.throttle.is_active() {
            return;
        }
        self.admits.incr();
        self.replica_at.insert(worker, task);
        self.site_inflight[worker.site.index()] += 1;
        self.task_replicas[task.index()] += 1;
        self.sync_rank(task);
    }

    /// Throttle bookkeeping for an execution ending at `worker` (won,
    /// cancelled, or fault-killed). A no-op for primary executions. A task
    /// dropping back below its cap while still pending rejoins the ranks.
    fn note_execution_ended(&mut self, worker: WorkerId) {
        if !self.throttle.is_active() {
            return;
        }
        let Some(task) = self.replica_at.remove(&worker) else {
            return;
        };
        self.releases.incr();
        self.site_inflight[worker.site.index()] -= 1;
        self.task_replicas[task.index()] -= 1;
        self.sync_rank(task);
    }
}

impl Scheduler for StorageAffinity {
    fn name(&self) -> String {
        "storage-affinity".to_string()
    }

    fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        self.cold.set_stats(RankStats::attach(telemetry));
        self.admits = telemetry.counter("throttle.admits");
        self.parks = telemetry.counter("throttle.parks");
        self.releases = telemetry.counter("throttle.releases");
    }

    fn on_control(&mut self, directive: &ControlDirective) {
        match directive {
            ControlDirective::SetReplicaCap(cap) => {
                // The adaptive throttle only runs on throttled schedulers
                // (the engine seeds a starting cap), so the replica
                // bookkeeping below is always live when a move arrives.
                if !self.throttle.is_active() {
                    return;
                }
                if self.throttle.replica_cap == Some(*cap) {
                    return;
                }
                self.throttle.replica_cap = Some(*cap);
                // Only a task with replicas running can cross the new cap
                // (every cap is at least 1).
                let replicated: Vec<TaskId> = self
                    .pending
                    .iter()
                    .filter(|t| self.task_replicas[t.index()] > 0)
                    .collect();
                for t in replicated {
                    self.sync_rank(t);
                }
            }
            ControlDirective::SiteScores(_) => {
                // Per-site placement scores cannot change a *per-site*
                // task argmax (a positive multiplier on one site's weights
                // is scale-invariant within that site); the engine applies
                // them where a cross-site choice exists (dispatch gating,
                // replication push targeting).
            }
        }
    }

    fn initialize(&mut self, env: &GridEnv, stores: &[SiteStore]) {
        assert_eq!(env.sites, stores.len(), "one store per site");
        self.workers_per_site = env.workers_per_site;
        self.queues = vec![VecDeque::new(); env.total_workers()];
        self.site_inflight = vec![0; env.sites];
        // The naive reference probes the store on every pick and keeps no
        // view, so the storage hooks find none to update.
        if self.mode == EvalMode::Incremental {
            self.views = (0..env.sites)
                .map(|s| SiteView::new(s, &self.index, WeightMetric::Overlap))
                .collect();
            for (view, store) in self.views.iter_mut().zip(stores) {
                for f in store.resident() {
                    view.on_file_added(&self.index, &mut self.cold, f, store.ref_count(f));
                }
            }
            self.cold.admit_all(&mut self.views, &self.pending);
        }

        // Predicted storage per site, seeded from actual contents (in the
        // store's ascending-id order, so the seeding is deterministic).
        let mut virtuals: Vec<VirtualStore> = stores
            .iter()
            .map(|s| {
                let mut v = VirtualStore::new(env.capacity_files);
                let resident: Vec<FileId> = s.resident().collect();
                v.admit(&resident);
                v
            })
            .collect();

        let total = self.workload.task_count();
        let budget = ((total as f64 / env.sites as f64) * self.budget_slack).ceil() as usize;
        let mut assigned = vec![0usize; env.sites];
        // Pre-lowered input sets: one AND+popcount per (task, site) probe.
        let masks: Vec<FileMask> = self
            .workload
            .tasks()
            .iter()
            .map(|t| FileMask::new(t.files()))
            .collect();

        for task in self.workload.tasks() {
            // Site with max predicted overlap among sites with budget left;
            // ties → least loaded, then lowest id.
            let mut best: Option<(usize, usize, usize)> = None; // (overlap, -load via cmp, site)
            for site in 0..env.sites {
                if assigned[site] >= budget {
                    continue;
                }
                let ov = virtuals[site].overlap(&masks[task.id.index()]);
                let better = match best {
                    None => true,
                    Some((bov, bload, _)) => ov > bov || (ov == bov && assigned[site] < bload),
                };
                if better {
                    best = Some((ov, assigned[site], site));
                }
            }
            let (_, _, site) = best.expect("budget covers all tasks: sites*budget >= total");
            // Round-robin among the site's workers.
            let worker_idx = assigned[site] % env.workers_per_site;
            let flat = site * env.workers_per_site + worker_idx;
            self.queues[flat].push_back(task.id);
            assigned[site] += 1;
            virtuals[site].admit(task.files());
        }
        self.initialized = true;
    }

    fn on_worker_idle(&mut self, worker: WorkerId, store: &SiteStore) -> Assignment {
        assert!(self.initialized, "initialize() must run first");
        if let Some(t) = self.pop_own_queue(worker) {
            self.running.entry(t).or_default().push(worker);
            return Assignment::Run(t);
        }
        if self.completed == self.workload.task_count() {
            return Assignment::Finished;
        }
        // Site budget: a saturated site parks its idle workers until one of
        // its in-flight replicas resolves (O(1), before any pick).
        if let Some(budget) = self.throttle.site_budget {
            if self.site_inflight[worker.site.index()] >= budget {
                self.parks.incr();
                return Assignment::Wait;
            }
        }
        match self.pick_replica(worker, store) {
            Some(t) => {
                self.running.entry(t).or_default().push(worker);
                self.note_replica_started(worker, t);
                Assignment::Replicate(t)
            }
            // Every unfinished task is saturated or already executing at
            // this very worker — try again after the next event.
            None => Assignment::Wait,
        }
    }

    fn on_task_complete(&mut self, worker: WorkerId, task: TaskId) -> CompletionOutcome {
        if self.done[task.index()] {
            // A replica finished after the first copy; nothing to do (the
            // engine should have cancelled it, but be tolerant) — beyond
            // releasing the execution's throttle slots.
            self.note_execution_ended(worker);
            return CompletionOutcome::default();
        }
        self.done[task.index()] = true;
        self.pool_remove(task);
        self.completed += 1;
        // The winning execution may itself be a replica. Its slots are
        // released only now, after the pool removal, so a cap-saturated
        // winner does not rejoin the ranks on its way out.
        self.note_execution_ended(worker);
        let mut others = self.running.remove(&task).unwrap_or_default();
        others.retain(|w| *w != worker);
        CompletionOutcome {
            cancel_replicas: others,
        }
    }

    fn on_replica_aborted(&mut self, worker: WorkerId, task: TaskId) {
        self.note_execution_ended(worker);
        if let Some(workers) = self.running.get_mut(&task) {
            workers.retain(|w| *w != worker);
        }
    }

    fn on_worker_lost(&mut self, worker: WorkerId, in_flight: Option<TaskId>) -> bool {
        self.note_execution_ended(worker);
        // The crashed worker's queued tasks stay in its queue: it drains
        // them after recovery, and in the meantime they remain valid
        // replication targets for idle workers (they are still `pending`).
        // Only the in-flight execution needs bookkeeping.
        let Some(task) = in_flight else {
            return false;
        };
        if let Some(workers) = self.running.get_mut(&task) {
            workers.retain(|w| *w != worker);
            if workers.is_empty() {
                self.running.remove(&task);
            }
        }
        // Orphaned iff no other replica is running and nobody finished it;
        // it stays in `pending`, so replication will pick it back up.
        !self.done[task.index()] && !self.running.contains_key(&task)
    }

    fn on_file_added(&mut self, site: SiteId, file: FileId, ref_count: u32) {
        if let Some(view) = self.views.get_mut(site.index()) {
            view.on_file_added(&self.index, &mut self.cold, file, ref_count);
        }
    }

    fn on_file_evicted(&mut self, site: SiteId, file: FileId, ref_count: u32) {
        if let Some(view) = self.views.get_mut(site.index()) {
            view.on_file_evicted(&self.index, &mut self.cold, file, ref_count);
        }
    }

    fn unfinished(&self) -> usize {
        self.workload.task_count() - self.completed
    }
}

impl std::fmt::Debug for StorageAffinity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StorageAffinity")
            .field("completed", &self.completed)
            .field("running", &self.running.len())
            .field("initialized", &self.initialized)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::SiteId;
    use gridsched_storage::EvictionPolicy;
    use gridsched_workload::coadd::CoaddConfig;

    fn setup(sites: usize, wps: usize) -> (StorageAffinity, Vec<SiteStore>, GridEnv) {
        // Unshuffled so id-adjacent tasks are spatial neighbours (the
        // clustering assertion below relies on it); slack 1.0 so every
        // site is guaranteed a share of the queue in these tiny setups.
        let mut cfg = CoaddConfig::small(0);
        cfg.shuffle_tasks = false;
        let wl = Arc::new(cfg.generate());
        let env = GridEnv {
            sites,
            workers_per_site: wps,
            capacity_files: 500,
        };
        let stores: Vec<SiteStore> = (0..sites)
            .map(|_| SiteStore::new(500, EvictionPolicy::Lru))
            .collect();
        let mut sched = StorageAffinity::new(wl).with_budget_slack(1.0);
        sched.initialize(&env, &stores);
        (sched, stores, env)
    }

    #[test]
    fn initial_assignment_is_balanced() {
        let (sched, _, env) = setup(4, 2);
        let total: usize = env.workers().map(|w| sched.queue_of(w).len()).sum();
        assert_eq!(total, 200, "every task queued exactly once");
        // Slack 1.0 → at most ⌈T/S⌉ tasks per site, split over the site's
        // workers.
        for w in env.workers() {
            let len = sched.queue_of(w).len();
            assert!(len <= 200 / 4 / 2 + 1, "queue at {w} too long: {len}");
        }
    }

    #[test]
    fn assignment_clusters_adjacent_tasks() {
        // Coadd neighbours share files; the virtual-storage prediction
        // should keep runs of adjacent tasks on the same site.
        let (sched, _, env) = setup(4, 1);
        let mut site_of = vec![usize::MAX; 200];
        for w in env.workers() {
            for &t in sched.queue_of(w) {
                site_of[t.index()] = w.site.index();
            }
        }
        let switches = site_of.windows(2).filter(|p| p[0] != p[1]).count();
        assert!(
            switches <= 12,
            "expected long same-site runs, got {switches} switches"
        );
    }

    #[test]
    fn workers_drain_own_queue_then_replicate() {
        let (mut sched, stores, _env) = setup(2, 1);
        let w0 = WorkerId::new(SiteId(0), 0);
        let w1 = WorkerId::new(SiteId(1), 0);
        // Exhaust w0's queue, completing each task.
        let own_queue: Vec<TaskId> = sched.queue_of(w0).iter().copied().collect();
        loop {
            match sched.on_worker_idle(w0, &stores[0]) {
                Assignment::Run(t) => {
                    assert!(own_queue.contains(&t), "w0 runs only its own queue");
                    sched.on_task_complete(w0, t);
                }
                // Once its queue drains, w0 replicates a task assigned to
                // w1 (queued tasks are valid replication targets).
                Assignment::Replicate(t) => {
                    assert!(!own_queue.contains(&t));
                    assert!(sched.queue_of(w1).contains(&t));
                    break;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        // w1, idle with a non-empty queue, still runs its own queue first.
        match sched.on_worker_idle(w1, &stores[1]) {
            Assignment::Run(_) => {}
            other => panic!("w1 should run its own queue first: {other:?}"),
        }
    }

    #[test]
    fn replica_completion_cancels_peers() {
        let (mut sched, stores, _env) = setup(2, 1);
        let w0 = WorkerId::new(SiteId(0), 0);
        let w1 = WorkerId::new(SiteId(1), 0);
        let t0 = match sched.on_worker_idle(w0, &stores[0]) {
            Assignment::Run(t) => t,
            other => panic!("unexpected {other:?}"),
        };
        // Drain w1's queue completely so it replicates.
        let mut last = None;
        let replicated = loop {
            match sched.on_worker_idle(w1, &stores[1]) {
                Assignment::Run(t) => {
                    if let Some(prev) = last {
                        sched.on_task_complete(w1, prev);
                    }
                    last = Some(t);
                }
                Assignment::Replicate(t) => break t,
                other => panic!("unexpected {other:?}"),
            }
        };
        if let Some(prev) = last {
            sched.on_task_complete(w1, prev);
        }
        assert_eq!(replicated, t0, "only t0 is running");
        // w0 finishes first → cancel the replica at w1.
        let outcome = sched.on_task_complete(w0, t0);
        assert_eq!(outcome.cancel_replicas, vec![w1]);
        sched.on_replica_aborted(w1, t0);
        // Completing the same task again is tolerated and a no-op.
        let again = sched.on_task_complete(w1, t0);
        assert!(again.cancel_replicas.is_empty());
    }

    #[test]
    fn replica_pick_modes_agree() {
        // Drive one instance per eval mode through the same storage churn
        // + idle/complete interleaving; every assignment must match.
        let mk = |mode| {
            let mut cfg = CoaddConfig::small(0);
            cfg.shuffle_tasks = false;
            let wl = Arc::new(cfg.generate());
            StorageAffinity::new(wl)
                .with_budget_slack(1.0)
                .with_eval_mode(mode)
        };
        let env = GridEnv {
            sites: 2,
            workers_per_site: 1,
            capacity_files: 40,
        };
        let mut stores: Vec<SiteStore> = (0..2)
            .map(|_| SiteStore::new(40, EvictionPolicy::Lru))
            .collect();
        let mut scheds: Vec<StorageAffinity> = [EvalMode::Incremental, EvalMode::Naive]
            .into_iter()
            .map(mk)
            .collect();
        for s in &mut scheds {
            s.initialize(&env, &stores);
        }
        let w0 = WorkerId::new(SiteId(0), 0);
        let w1 = WorkerId::new(SiteId(1), 0);
        // Drain w0's queue (completing), churning site-0 storage along the
        // way, until it starts replicating; every decision must agree.
        let mut file = 0u32;
        for step in 0..300 {
            let f = FileId(file % 60);
            file += 7;
            if !stores[0].contains(f) {
                let evicted = stores[0].insert(f);
                for e in evicted {
                    let rc = stores[0].ref_count(e);
                    for s in &mut scheds {
                        s.on_file_evicted(SiteId(0), e, rc);
                    }
                }
                let rc = stores[0].ref_count(f);
                for s in &mut scheds {
                    s.on_file_added(SiteId(0), f, rc);
                }
            }
            let picks: Vec<Assignment> = scheds
                .iter_mut()
                .map(|s| s.on_worker_idle(w0, &stores[0]))
                .collect();
            assert_eq!(picks[0], picks[1], "step {step}");
            match picks[0] {
                Assignment::Run(t) => {
                    for s in &mut scheds {
                        s.on_task_complete(w0, t);
                    }
                }
                Assignment::Replicate(t) => {
                    // Let the replica "finish" at w0, cancelling nothing at
                    // w1 (it is not running anything), then continue.
                    for s in &mut scheds {
                        let out = s.on_task_complete(w0, t);
                        assert!(out.cancel_replicas.is_empty());
                    }
                }
                Assignment::Wait | Assignment::Finished => break,
            }
        }
        // w1 must agree too (its queue was never touched).
        let picks: Vec<Assignment> = scheds
            .iter_mut()
            .map(|s| s.on_worker_idle(w1, &stores[1]))
            .collect();
        assert_eq!(picks[0], picks[1]);
    }

    /// Completes every task except `keep` (as if other workers had run
    /// them), so the next idle polls can only replicate the kept tasks.
    fn complete_all_except(sched: &mut StorageAffinity, reporter: WorkerId, keep: &[TaskId]) {
        let total = sched.workload.task_count() as u32;
        for t in (0..total).map(TaskId) {
            if !keep.contains(&t) {
                sched.on_task_complete(reporter, t);
            }
        }
    }

    #[test]
    fn replica_cap_limits_concurrent_copies() {
        let mut cfg = CoaddConfig::small(0);
        cfg.shuffle_tasks = false;
        let wl = Arc::new(cfg.generate());
        let env = GridEnv {
            sites: 3,
            workers_per_site: 1,
            capacity_files: 500,
        };
        let stores: Vec<SiteStore> = (0..3)
            .map(|_| SiteStore::new(500, EvictionPolicy::Lru))
            .collect();
        let mut sched = StorageAffinity::new(wl)
            .with_budget_slack(1.0)
            .with_throttle(ReplicaThrottle::none().with_replica_cap(1));
        sched.initialize(&env, &stores);
        let w0 = WorkerId::new(SiteId(0), 0);
        let w1 = WorkerId::new(SiteId(1), 0);
        let w2 = WorkerId::new(SiteId(2), 0);
        // Leave exactly two of w2's queued tasks pending; everything else
        // is done, so w0/w1 can only replicate those two.
        let mut keep: Vec<TaskId> = sched.queue_of(w2).iter().copied().take(2).collect();
        keep.sort_unstable();
        let (a, b) = (keep[0], keep[1]);
        complete_all_except(&mut sched, w2, &keep);
        // Both stores are empty → all overlaps zero → lowest id wins.
        let first = match sched.on_worker_idle(w0, &stores[0]) {
            Assignment::Replicate(t) => t,
            other => panic!("expected a replica, got {other:?}"),
        };
        assert_eq!(first, a);
        assert_eq!(sched.task_replicas[a.index()], 1);
        // With cap 1 the second idle worker must pick the *other* task.
        match sched.on_worker_idle(w1, &stores[1]) {
            Assignment::Replicate(t) => assert_eq!(t, b, "cap 1 forbids a second copy of {a}"),
            other => panic!("expected a replica, got {other:?}"),
        }
        // Aborting the first replica frees the task again.
        sched.on_replica_aborted(w0, a);
        assert_eq!(sched.task_replicas[a.index()], 0);
        match sched.on_worker_idle(w0, &stores[0]) {
            Assignment::Replicate(t) => assert_eq!(t, a, "freed task is the best pick again"),
            other => panic!("expected a replica, got {other:?}"),
        }
    }

    #[test]
    fn replica_cap_moves_keep_modes_agree() {
        // Lowering the cap withdraws tasks that now sit at it from the
        // ranks; raising it re-admits them. Both eval modes must keep
        // picking alike across the moves.
        let env = GridEnv {
            sites: 4,
            workers_per_site: 1,
            capacity_files: 500,
        };
        let stores: Vec<SiteStore> = (0..4)
            .map(|_| SiteStore::new(500, EvictionPolicy::Lru))
            .collect();
        let mut scheds: Vec<StorageAffinity> = [EvalMode::Incremental, EvalMode::Naive]
            .into_iter()
            .map(|mode| {
                let mut cfg = CoaddConfig::small(0);
                cfg.shuffle_tasks = false;
                StorageAffinity::new(Arc::new(cfg.generate()))
                    .with_budget_slack(1.0)
                    .with_throttle(ReplicaThrottle::none().with_replica_cap(2))
                    .with_eval_mode(mode)
            })
            .collect();
        let w3 = WorkerId::new(SiteId(3), 0);
        let mut keep: Vec<TaskId> = Vec::new();
        for s in &mut scheds {
            s.initialize(&env, &stores);
            keep = s.queue_of(w3).iter().copied().take(2).collect();
            keep.sort_unstable();
            complete_all_except(s, w3, &keep);
        }
        let (a, b) = (keep[0], keep[1]);
        // One idle poll at `site` after moving the cap to `cap`.
        let mut step = |cap: Option<u32>, site: u32| {
            let w = WorkerId::new(SiteId(site), 0);
            let picks: Vec<Assignment> = scheds
                .iter_mut()
                .map(|s| {
                    if let Some(cap) = cap {
                        s.on_control(&ControlDirective::SetReplicaCap(cap));
                    }
                    s.on_worker_idle(w, &stores[site as usize])
                })
                .collect();
            assert_eq!(picks[0], picks[1], "site {site}");
            picks[0]
        };
        // Empty stores: every overlap is zero, so the lowest id wins.
        assert_eq!(step(None, 0), Assignment::Replicate(a));
        assert_eq!(
            step(Some(1), 1),
            Assignment::Replicate(b),
            "{a} sits at cap 1"
        );
        assert_eq!(
            step(Some(3), 2),
            Assignment::Replicate(a),
            "cap 3 re-admits {a}"
        );
    }

    #[test]
    fn site_budget_parks_saturated_site() {
        let mut cfg = CoaddConfig::small(0);
        cfg.shuffle_tasks = false;
        let wl = Arc::new(cfg.generate());
        let env = GridEnv {
            sites: 2,
            workers_per_site: 2,
            capacity_files: 500,
        };
        let stores: Vec<SiteStore> = (0..2)
            .map(|_| SiteStore::new(500, EvictionPolicy::Lru))
            .collect();
        let mut sched = StorageAffinity::new(wl)
            .with_budget_slack(1.0)
            .with_throttle(ReplicaThrottle::none().with_site_budget(1));
        sched.initialize(&env, &stores);
        let w00 = WorkerId::new(SiteId(0), 0);
        let w01 = WorkerId::new(SiteId(0), 1);
        let w10 = WorkerId::new(SiteId(1), 0);
        // Keep two of site 1's queued tasks; site 0 has nothing left to
        // run, so its two workers both turn to replication.
        let keep: Vec<TaskId> = sched.queue_of(w10).iter().copied().take(2).collect();
        complete_all_except(&mut sched, w10, &keep);
        let t = match sched.on_worker_idle(w00, &stores[0]) {
            Assignment::Replicate(t) => t,
            other => panic!("expected a replica, got {other:?}"),
        };
        assert_eq!(sched.site_inflight[0], 1);
        // The site's single replica slot is taken: the second worker waits.
        assert_eq!(sched.on_worker_idle(w01, &stores[0]), Assignment::Wait);
        // Slot frees when the replica resolves.
        sched.on_replica_aborted(w00, t);
        assert_eq!(sched.site_inflight[0], 0);
        assert!(matches!(
            sched.on_worker_idle(w01, &stores[0]),
            Assignment::Replicate(_)
        ));
    }

    #[test]
    fn inactive_throttle_keeps_counters_dormant() {
        let (mut sched, stores, _env) = setup(2, 1);
        let w0 = WorkerId::new(SiteId(0), 0);
        let w1 = WorkerId::new(SiteId(1), 0);
        let keep: Vec<TaskId> = sched.queue_of(w1).iter().copied().take(1).collect();
        complete_all_except(&mut sched, w1, &keep);
        match sched.on_worker_idle(w0, &stores[0]) {
            Assignment::Replicate(t) => {
                assert!(sched.replica_at.is_empty(), "no bookkeeping when inactive");
                assert_eq!(sched.task_replicas[t.index()], 0);
            }
            other => panic!("expected a replica, got {other:?}"),
        }
    }

    #[test]
    fn all_tasks_complete_exactly_once() {
        let (mut sched, stores, env) = setup(3, 2);
        let mut completions = 0;
        // Round-robin all workers until everyone is Finished.
        let workers: Vec<WorkerId> = env.workers().collect();
        let mut slots: Vec<Option<TaskId>> = vec![None; workers.len()];
        let mut finished = std::collections::HashSet::new();
        while finished.len() < workers.len() {
            for i in 0..workers.len() {
                let w = workers[i];
                if finished.contains(&w) {
                    continue;
                }
                if let Some(t) = slots[i].take() {
                    let out = sched.on_task_complete(w, t);
                    assert!(sched.done[t.index()], "completion not recorded");
                    completions += 1;
                    for cw in out.cancel_replicas {
                        sched.on_replica_aborted(cw, t);
                        // the cancelled worker becomes idle again
                        let j = workers.iter().position(|x| *x == cw).unwrap();
                        slots[j] = None;
                    }
                    continue;
                }
                match sched.on_worker_idle(w, &stores[w.site.index()]) {
                    Assignment::Run(t) | Assignment::Replicate(t) => slots[i] = Some(t),
                    Assignment::Wait => {}
                    Assignment::Finished => {
                        finished.insert(w);
                    }
                }
            }
        }
        assert_eq!(sched.unfinished(), 0);
        assert_eq!(completions, 200, "each task completes exactly once");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use gridsched_storage::EvictionPolicy;
    use gridsched_workload::coadd::CoaddConfig;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Initialization queues every task exactly once, respecting the
        /// per-site budget, for any grid shape.
        #[test]
        fn assignment_partitions_tasks(
            sites in 1usize..8,
            wps in 1usize..5,
            capacity in 50usize..2000,
            tasks in 50u32..300,
            seed in 0u64..4,
        ) {
            let mut cfg = CoaddConfig::small(seed);
            cfg.tasks = tasks;
            let wl = Arc::new(cfg.generate());
            let env = GridEnv { sites, workers_per_site: wps, capacity_files: capacity };
            let stores: Vec<SiteStore> = (0..sites)
                .map(|_| SiteStore::new(capacity, EvictionPolicy::Lru))
                .collect();
            let mut sched = StorageAffinity::new(Arc::clone(&wl));
            sched.initialize(&env, &stores);

            let mut seen = vec![0u32; wl.task_count()];
            let mut per_site = vec![0usize; sites];
            for w in env.workers() {
                for &t in sched.queue_of(w) {
                    seen[t.index()] += 1;
                    per_site[w.site.index()] += 1;
                }
            }
            prop_assert!(seen.iter().all(|&c| c == 1), "each task queued exactly once");
            let budget = ((wl.task_count() as f64 / sites as f64) * 2.0).ceil() as usize;
            for (s, &count) in per_site.iter().enumerate() {
                prop_assert!(count <= budget, "site {s} over budget: {count} > {budget}");
            }
        }
    }
}
