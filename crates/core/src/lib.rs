//! # gridsched-core — worker-centric scheduling strategies
//!
//! The primary contribution of *"New Worker-Centric Scheduling Strategies
//! for Data-Intensive Grid Applications"* (Ko, Morales, Gupta — MIDDLEWARE
//! 2007), implemented as a library:
//!
//! * [`WorkerCentric`] — the paper's basic algorithm (Figure 2): a worker
//!   requests a task **only when it is idle**; the global scheduler weighs
//!   every pending task for that worker and picks one via
//!   [`choose::ChooseTask`];
//! * [`WeightMetric`] — the three weights of §4.2: `Overlap` (`|F_t|`),
//!   `Rest` (`1/(|t|−|F_t|)`) and `Combined`
//!   (`ref_t/totalRef + rest_t/totalRest`);
//! * [`StorageAffinity`] — the task-centric baseline of Santos-Neto et al.
//!   (data reuse + task replication), §3.1/[14];
//! * [`Workqueue`] — the classic FIFO pull scheduler [6];
//! * [`index::FileIndex`] / [`index::SiteView`] / [`index::TaskRank`] /
//!   [`index::ColdRank`] — an inverted file→task index with
//!   incrementally-maintained per-site counters (overlap for every metric;
//!   reference sums only for `Combined`, the one metric that reads them),
//!   plus bucketed priority indexes over the pending pool — sparse per
//!   site, over one shared rank of the zero-overlap tasks — turning each
//!   scheduling decision from `O(T·I)` file probes into an `O(log T)`
//!   amortized pick (the complexity the paper quotes is the naive
//!   evaluation; both paths are provided, selectable via [`EvalMode`], and
//!   property-tested for byte-identical decisions).
//!
//! All strategies implement the [`Scheduler`] trait, which the grid
//! simulator (`gridsched-sim`) drives with worker-idle and task-completion
//! events plus storage-change notifications: file arrivals and evictions,
//! and one batch of references per task start.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod choose;
pub mod control;
pub mod ids;
pub mod index;
pub mod pool;
pub mod scheduler;
pub mod storage_affinity;
pub mod sufferage;
pub mod weight;
pub mod worker_centric;
pub mod workqueue;

pub use choose::ChooseTask;
pub use control::{
    AvailabilityTracker, BreakerState, CapController, CircuitBreaker, ControlConfig,
    ControlDirective, ControlPlane, Ewma, InterarrivalTracker, TickOutcome,
};
pub use ids::{GridEnv, SiteId, WorkerId};
pub use pool::TaskPool;
pub use scheduler::{
    Assignment, CompletionOutcome, EvalMode, ReplicaThrottle, Scheduler, StrategyKind,
};
pub use storage_affinity::StorageAffinity;
pub use sufferage::Sufferage;
pub use weight::WeightMetric;
pub use worker_centric::WorkerCentric;
pub use workqueue::Workqueue;
