//! # gridsched — worker-centric scheduling for data-intensive grids
//!
//! A full reproduction of *"New Worker-Centric Scheduling Strategies for
//! Data-Intensive Grid Applications"* (Steven Y. Ko, Ramsés Morales,
//! Indranil Gupta — MIDDLEWARE 2007) as a Rust workspace. This facade
//! crate re-exports the public API of every sub-crate:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`des`] | `gridsched-des` | discrete-event kernel (time, event queue, seeded RNG streams) |
//! | [`topology`] | `gridsched-topology` | Tiers-like WAN/MAN/LAN generator + routing |
//! | [`net`] | `gridsched-net` | flow-level network with max–min fair sharing |
//! | [`workload`] | `gridsched-workload` | Bag-of-Tasks model + the Coadd generator |
//! | [`storage`] | `gridsched-storage` | capacity-bounded site storage (LRU/FIFO/LFU, pinning, `r_i`) |
//! | [`core`] | `gridsched-core` | the scheduling strategies (the paper's contribution) |
//! | [`faults`] | `gridsched-faults` | fault injection: MTBF/MTTR churn processes + scripted fault traces |
//! | [`checkpoint`] | `gridsched-checkpoint` | checkpoint/restart policies (fixed interval, Young/Daly) + image tracking |
//! | [`telemetry`] | `gridsched-telemetry` | deterministic observability: instruments, lifecycle spans, probe sampler |
//! | [`sim`] | `gridsched-sim` | the grid simulator + experiment runner |
//!
//! ## Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use gridsched::prelude::*;
//!
//! // The paper's scaled Coadd workload (use `CoaddConfig::small(0)` in
//! // tests — it finishes instantly).
//! let workload = Arc::new(CoaddConfig::small(0).generate());
//!
//! // Table 1 defaults: 10 sites, 1 worker/site, 6,000-file data servers.
//! let config = SimConfig::paper(workload, StrategyKind::Combined2).with_sites(3);
//!
//! let report = GridSim::new(config).run();
//! assert_eq!(report.tasks_completed, 200);
//! println!("makespan: {:.0} minutes", report.makespan_minutes);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use gridsched_checkpoint as checkpoint;
pub use gridsched_core as core;
pub use gridsched_des as des;
pub use gridsched_faults as faults;
pub use gridsched_net as net;
pub use gridsched_storage as storage;
pub use gridsched_telemetry as telemetry;
pub use gridsched_topology as topology;
pub use gridsched_workload as workload;

/// Re-export of the simulator crate (named `sim` to avoid the
/// `gridsched_sim` mouthful).
pub mod sim {
    pub use gridsched_sim::*;
}

/// The most common imports in one place.
pub mod prelude {
    pub use gridsched_checkpoint::{CheckpointConfig, CheckpointPolicy};
    pub use gridsched_core::{
        Assignment, BreakerState, ChooseTask, ControlConfig, ControlDirective, EvalMode,
        ReplicaThrottle, Scheduler, SiteId, StorageAffinity, StrategyKind, Sufferage, WeightMetric,
        WorkerCentric, WorkerId, Workqueue,
    };
    pub use gridsched_des::ConfigError;
    pub use gridsched_faults::{FaultConfig, FaultEvent, FaultKind, FaultTrace};
    pub use gridsched_sim::{
        run_averaged, run_averaged_with_spread, GridSim, MetricsReport, ReplicationConfig,
        ReportSpread, SimConfig, SpeedModel, Telemetry,
    };
    pub use gridsched_storage::{EvictionPolicy, SiteStore};
    pub use gridsched_telemetry::{
        diff_digests, BlameReport, DigestFold, DigestStream, Divergence, MetricsServer,
    };
    pub use gridsched_topology::{generate as generate_topology, TiersConfig};
    pub use gridsched_workload::builder::{Popularity, WorkloadBuilder};
    pub use gridsched_workload::coadd::CoaddConfig;
    pub use gridsched_workload::{FileId, TaskId, TaskSpec, Workload};
}
