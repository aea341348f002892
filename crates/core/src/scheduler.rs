//! The scheduler interface the grid simulator drives.
//!
//! One trait covers both families:
//!
//! * **worker-centric** schedulers decide lazily, one request at a time
//!   ([`Scheduler::on_worker_idle`] returns [`Assignment::Run`]);
//! * the **task-centric** baseline pre-assigns every task at
//!   [`Scheduler::initialize`] time and serves queue pops, issuing
//!   [`Assignment::Replicate`] once its queues drain.
//!
//! Storage-change notifications ([`Scheduler::on_file_added`],
//! [`Scheduler::on_file_evicted`], and [`Scheduler::on_files_referenced`]
//! once per task start) let implementations keep incremental indexes;
//! they carry no information a real global scheduler could not obtain
//! (data location is "relatively static and easy to obtain", §2.4).

use std::fmt;

use serde::{Deserialize, Serialize};

use gridsched_storage::SiteStore;
use gridsched_telemetry::Telemetry;
use gridsched_workload::{FileId, TaskId};

use crate::control::ControlDirective;
use crate::ids::{GridEnv, SiteId, WorkerId};
use crate::weight::WeightMetric;

/// How a scheduler evaluates its per-decision queue scan.
///
/// Both modes are property-tested to produce byte-identical assignment
/// sequences (and therefore identical simulation output); they differ only
/// in per-decision cost. See `tests/scheduler_equivalence.rs` and the
/// `perf_scale` entry of the `claims` binary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum EvalMode {
    /// Incrementally-maintained per-site priority indexes
    /// ([`crate::index::TaskRank`]): `O(log T)` amortized per decision.
    /// The default.
    #[default]
    Incremental,
    /// Per-decision direct file probing — the paper's stated `O(T·I)`
    /// complexity (§4.4); kept for validation and benchmarking.
    Naive,
}

impl fmt::Display for EvalMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            EvalMode::Incremental => "incremental",
            EvalMode::Naive => "naive",
        };
        f.write_str(s)
    }
}

impl std::str::FromStr for EvalMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "incremental" => Ok(EvalMode::Incremental),
            "naive" => Ok(EvalMode::Naive),
            other => Err(format!("unknown eval mode `{other}` (incremental|naive)")),
        }
    }
}

/// Bounds on storage affinity's speculative task replication.
///
/// Uncapped replication is the documented large-grid pathology of the
/// task-centric baseline: every idle worker replicates some running task,
/// every completion cancels the losers, and the cancelled workers go idle
/// and replicate again — a launch/cancel storm whose event count dwarfs the
/// useful work (283M events vs ~1.8M for the worker-centric strategies at
/// 10⁵ workers, the `perf_scale_1e5` entry of `BENCH_scale.json`). The
/// throttle bounds the fan-out on two axes without touching the paper's
/// small-grid behaviour:
///
/// * [`replica_cap`](ReplicaThrottle::replica_cap) — at most this many
///   concurrent *replica* executions per task (primaries never count, so a
///   cap of 1 still lets an idle worker pick up any task that is queued or
///   running exactly once elsewhere);
/// * [`site_budget`](ReplicaThrottle::site_budget) — at most this many
///   concurrent replica executions *launched by one site's workers*, so a
///   site full of idle workers cannot flood the grid by itself.
///
/// `ReplicaThrottle::none()` (the default) disables both bounds and is
/// byte-identical to the unthrottled scheduler.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReplicaThrottle {
    /// Max concurrent replica executions per task (`None` = unbounded).
    pub replica_cap: Option<u32>,
    /// Max concurrent replica executions launched per site (`None` =
    /// unbounded).
    pub site_budget: Option<u32>,
}

impl ReplicaThrottle {
    /// No throttling — the unbounded paper behaviour.
    #[must_use]
    pub fn none() -> Self {
        ReplicaThrottle::default()
    }

    /// Whether any bound is configured.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.replica_cap.is_some() || self.site_budget.is_some()
    }

    /// Sets the per-task replica cap.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero: a fault-orphaned task that is in nobody's
    /// queue anymore can only come back as a replica, so a zero cap could
    /// deadlock churned runs.
    #[must_use]
    pub fn with_replica_cap(mut self, cap: u32) -> Self {
        assert!(cap >= 1, "replica cap must be >= 1");
        self.replica_cap = Some(cap);
        self
    }

    /// Sets the per-site in-flight replica budget.
    ///
    /// # Panics
    ///
    /// Panics if `budget` is zero (same deadlock hazard as a zero cap).
    #[must_use]
    pub fn with_site_budget(mut self, budget: u32) -> Self {
        assert!(budget >= 1, "site replica budget must be >= 1");
        self.site_budget = Some(budget);
        self
    }

    /// Human-readable summary (`"none"` when inactive).
    #[must_use]
    pub fn summary(&self) -> String {
        match (self.replica_cap, self.site_budget) {
            (None, None) => "none".to_string(),
            (Some(c), None) => format!("cap={c}"),
            (None, Some(b)) => format!("site-budget={b}"),
            (Some(c), Some(b)) => format!("cap={c} site-budget={b}"),
        }
    }
}

/// What an idle worker should do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Assignment {
    /// Execute this pending task (it leaves the pending pool).
    Run(TaskId),
    /// Execute a *replica* of a task already running elsewhere
    /// (task-centric storage affinity's idle-worker mitigation).
    Replicate(TaskId),
    /// Nothing to do right now, but more work may appear (e.g. replicas
    /// only make sense once transfers finish) — ask again after the next
    /// completion.
    Wait,
    /// The job is finished from this worker's perspective; it will never
    /// receive work again.
    Finished,
}

/// The scheduler's reaction to a task completing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CompletionOutcome {
    /// Workers whose replica of the completed task must be aborted
    /// (storage affinity: "If one of the workers finishes the task, the
    /// other cancels the task").
    pub cancel_replicas: Vec<WorkerId>,
}

/// A grid scheduler under test.
///
/// Lifecycle, as driven by `gridsched-sim`:
/// 1. [`initialize`](Scheduler::initialize) once, with the grid shape;
/// 2. [`on_worker_idle`](Scheduler::on_worker_idle) whenever a worker has
///    nothing to do (including at start-up);
/// 3. [`on_task_complete`](Scheduler::on_task_complete) /
///    [`on_replica_aborted`](Scheduler::on_replica_aborted) as executions
///    finish;
/// 4. storage-change notifications interleaved throughout.
pub trait Scheduler {
    /// Short machine-readable name (used in experiment output; matches the
    /// paper's algorithm labels, e.g. `rest.2`).
    fn name(&self) -> String;

    /// Called once before the simulation starts.
    fn initialize(&mut self, env: &GridEnv, stores: &[SiteStore]) {
        let _ = (env, stores);
    }

    /// Installs hot-path instrument handles from the run's telemetry
    /// collector. Called by the engine before
    /// [`initialize`](Scheduler::initialize); the default is a no-op.
    /// Implementations must only *record* through the handles — attaching
    /// telemetry must not change any scheduling decision (property-tested
    /// in `tests/scheduler_equivalence.rs`).
    fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        let _ = telemetry;
    }

    /// A control-plane directive arrived (adaptive cap moves, fresh
    /// per-site placement scores). Delivered at controller-tick time —
    /// never inside an event dispatch — so implementations may mutate
    /// internal setpoints freely. The default ignores directives: every
    /// strategy keeps working unchanged with the control loops on, and
    /// with them off this is never called (byte-identity with the
    /// uncontrolled engine is property-tested).
    fn on_control(&mut self, directive: &ControlDirective) {
        let _ = directive;
    }

    /// A worker is idle and requests work. `store` is the current storage
    /// of the worker's site.
    fn on_worker_idle(&mut self, worker: WorkerId, store: &SiteStore) -> Assignment;

    /// `task` finished at `worker`.
    fn on_task_complete(&mut self, worker: WorkerId, task: TaskId) -> CompletionOutcome;

    /// The engine aborted `task`'s replica at `worker` (follow-up to a
    /// [`CompletionOutcome::cancel_replicas`] entry).
    fn on_replica_aborted(&mut self, worker: WorkerId, task: TaskId) {
        let _ = (worker, task);
    }

    /// `worker` crashed (fault injection). `in_flight` is the task it was
    /// executing, if any; the scheduler must make that task eligible for
    /// execution again unless another replica of it is still running.
    ///
    /// Returns `true` iff an in-flight task was *orphaned* — no copy of it
    /// is running anywhere anymore — and will therefore need a
    /// re-execution. The engine uses the return value for its
    /// `tasks_lost` accounting.
    fn on_worker_lost(&mut self, worker: WorkerId, in_flight: Option<TaskId>) -> bool;

    /// `worker` recovered from a crash and will start requesting work
    /// again.
    fn on_worker_recovered(&mut self, worker: WorkerId) {
        let _ = worker;
    }

    /// A file became resident at a site (with its current `r_i`).
    fn on_file_added(&mut self, site: SiteId, file: FileId, ref_count: u32) {
        let _ = (site, file, ref_count);
    }

    /// A file was evicted at a site (with the `r_i` it held).
    fn on_file_evicted(&mut self, site: SiteId, file: FileId, ref_count: u32) {
        let _ = (site, file, ref_count);
    }

    /// A task started at `site` and referenced each of `files` once
    /// (every file's `r_i` already incremented by one) — one call per task
    /// start, not per file.
    ///
    /// Only the `combined` metric reads past references, so the default
    /// is a no-op, and every strategy but [`crate::WorkerCentric`] with
    /// [`WeightMetric::Combined`] keeps it.
    fn on_files_referenced(&mut self, site: SiteId, files: &[FileId]) {
        let _ = (site, files);
    }

    /// Number of tasks that have not yet completed anywhere.
    fn unfinished(&self) -> usize;
}

/// The six algorithms of the paper's evaluation (§5.3) plus the classic
/// workqueue baseline, as a parseable configuration enum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StrategyKind {
    /// Task-centric storage affinity (data reuse + task replication) \[14\].
    StorageAffinity,
    /// Worker-centric, `overlap` metric, deterministic.
    Overlap,
    /// Worker-centric, `rest` metric, `ChooseTask(1)`.
    Rest,
    /// Worker-centric, `combined` metric, `ChooseTask(1)`.
    Combined,
    /// Worker-centric, `rest` metric, randomized `ChooseTask(2)`.
    Rest2,
    /// Worker-centric, `combined` metric, randomized `ChooseTask(2)`.
    Combined2,
    /// FIFO workqueue (no locality) \[6\].
    Workqueue,
    /// Data-aware XSufferage-style baseline (Casanova et al. \[5\]).
    Sufferage,
}

impl StrategyKind {
    /// The paper's six compared algorithms, in Figure legend order.
    pub const PAPER_SET: [StrategyKind; 6] = [
        StrategyKind::StorageAffinity,
        StrategyKind::Overlap,
        StrategyKind::Rest,
        StrategyKind::Combined,
        StrategyKind::Rest2,
        StrategyKind::Combined2,
    ];

    /// The worker-centric weight metric, if this is a worker-centric
    /// strategy.
    #[must_use]
    pub fn metric(self) -> Option<WeightMetric> {
        match self {
            StrategyKind::Overlap => Some(WeightMetric::Overlap),
            StrategyKind::Rest | StrategyKind::Rest2 => Some(WeightMetric::Rest),
            StrategyKind::Combined | StrategyKind::Combined2 => Some(WeightMetric::Combined),
            StrategyKind::StorageAffinity | StrategyKind::Workqueue | StrategyKind::Sufferage => {
                None
            }
        }
    }

    /// The `ChooseTask(n)` parameter for worker-centric strategies.
    #[must_use]
    pub fn choose_n(self) -> usize {
        match self {
            StrategyKind::Rest2 | StrategyKind::Combined2 => 2,
            _ => 1,
        }
    }
}

impl fmt::Display for StrategyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            StrategyKind::StorageAffinity => "storage-affinity",
            StrategyKind::Overlap => "overlap",
            StrategyKind::Rest => "rest",
            StrategyKind::Combined => "combined",
            StrategyKind::Rest2 => "rest.2",
            StrategyKind::Combined2 => "combined.2",
            StrategyKind::Workqueue => "workqueue",
            StrategyKind::Sufferage => "xsufferage",
        };
        f.write_str(s)
    }
}

impl std::str::FromStr for StrategyKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "storage-affinity" | "storage_affinity" | "sa" => Ok(StrategyKind::StorageAffinity),
            "overlap" => Ok(StrategyKind::Overlap),
            "rest" => Ok(StrategyKind::Rest),
            "combined" => Ok(StrategyKind::Combined),
            "rest.2" | "rest2" => Ok(StrategyKind::Rest2),
            "combined.2" | "combined2" => Ok(StrategyKind::Combined2),
            "workqueue" | "wq" => Ok(StrategyKind::Workqueue),
            "xsufferage" | "sufferage" => Ok(StrategyKind::Sufferage),
            other => Err(format!("unknown strategy `{other}`")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_paper_labels() {
        assert_eq!(
            StrategyKind::StorageAffinity.to_string(),
            "storage-affinity"
        );
        assert_eq!(StrategyKind::Rest2.to_string(), "rest.2");
        assert_eq!(StrategyKind::Combined2.to_string(), "combined.2");
    }

    #[test]
    fn parse_round_trips() {
        for k in StrategyKind::PAPER_SET {
            assert_eq!(k.to_string().parse::<StrategyKind>().unwrap(), k);
        }
        assert_eq!(
            "workqueue".parse::<StrategyKind>().unwrap(),
            StrategyKind::Workqueue
        );
    }

    #[test]
    fn throttle_summary_and_activity() {
        assert!(!ReplicaThrottle::none().is_active());
        assert_eq!(ReplicaThrottle::none().summary(), "none");
        let t = ReplicaThrottle::none().with_replica_cap(2);
        assert!(t.is_active());
        assert_eq!(t.summary(), "cap=2");
        let t = t.with_site_budget(16);
        assert_eq!(t.summary(), "cap=2 site-budget=16");
        assert_eq!(
            ReplicaThrottle::none().with_site_budget(4).summary(),
            "site-budget=4"
        );
    }

    #[test]
    #[should_panic(expected = "replica cap must be >= 1")]
    fn zero_cap_panics() {
        let _ = ReplicaThrottle::none().with_replica_cap(0);
    }

    /// Every strategy whose metric ignores references keeps the batched
    /// hook a no-op: its views hold no reference state, the hook leaves
    /// them untouched, and a copy told of every task start keeps deciding
    /// exactly like one told of none.
    #[test]
    fn reference_hook_leaves_non_combined_state_untouched() {
        use std::sync::Arc;

        use gridsched_storage::EvictionPolicy;
        use gridsched_workload::coadd::CoaddConfig;
        use gridsched_workload::Workload;

        use crate::index::SiteView;
        use crate::{StorageAffinity, Sufferage, WorkerCentric};

        fn check<S: Scheduler>(
            workload: &Workload,
            make: impl Fn() -> S,
            views: fn(&S) -> &[SiteView],
        ) {
            let env = GridEnv {
                sites: 2,
                workers_per_site: 1,
                capacity_files: 10_000,
            };
            let mut stores = vec![SiteStore::new(10_000, EvictionPolicy::Lru); 2];
            for (site, task) in [(0, 0), (1, 40)] {
                for &f in workload.task(TaskId(task)).files() {
                    stores[site].insert(f);
                }
            }
            let (mut told, mut untold) = (make(), make());
            told.initialize(&env, &stores);
            untold.initialize(&env, &stores);
            let name = told.name();
            assert!(!views(&told).is_empty(), "{name}: incremental views");
            for _ in 0..4 {
                for (s, store) in stores.iter_mut().enumerate() {
                    let site = SiteId(s as u32);
                    let files: Vec<FileId> = store.resident().collect();
                    for &f in &files {
                        store.record_task_reference(f);
                    }
                    let before = format!("{:?}", views(&told));
                    told.on_files_referenced(site, &files);
                    assert_eq!(format!("{:?}", views(&told)), before, "{name}");
                    assert!(
                        views(&told).iter().all(|v| !v.tracks_references()),
                        "{name}"
                    );
                    let w = WorkerId::new(site, 0);
                    assert_eq!(
                        told.on_worker_idle(w, store),
                        untold.on_worker_idle(w, store),
                        "{name}"
                    );
                }
            }
        }

        let wl = Arc::new(CoaddConfig::small(0).generate());
        for (metric, n) in [(WeightMetric::Overlap, 1), (WeightMetric::Rest, 2)] {
            let make = || WorkerCentric::new(Arc::clone(&wl), metric, n, 3);
            check(&wl, make, WorkerCentric::views);
        }
        check(
            &wl,
            || StorageAffinity::new(Arc::clone(&wl)),
            StorageAffinity::views,
        );
        check(&wl, || Sufferage::new(Arc::clone(&wl)), Sufferage::views);
    }

    #[test]
    fn metric_mapping() {
        assert_eq!(StrategyKind::Rest2.metric(), Some(WeightMetric::Rest));
        assert_eq!(StrategyKind::Rest2.choose_n(), 2);
        assert_eq!(StrategyKind::Combined.choose_n(), 1);
        assert_eq!(StrategyKind::StorageAffinity.metric(), None);
    }
}
