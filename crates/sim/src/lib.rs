//! # gridsched-sim — the grid application simulator
//!
//! Ties every substrate together into the system model of §2.2 of the
//! paper:
//!
//! 1. a job is a Bag-of-Tasks ([`gridsched_workload`]);
//! 2. multiple sites, each with ≥1 worker and exactly one data server with
//!    capacity-bounded local storage ([`gridsched_storage`]);
//! 3. the data server receives all file requests from its site's workers
//!    and sends **batch** requests for the missing files to the external
//!    file server, processing requests **one by one**;
//! 4. each task issues exactly one batch file request;
//! 5. a worker starts executing only when all the task's files are local;
//! 6. one global scheduler hands out tasks on demand
//!    ([`gridsched_core`]); one external file server holds every file;
//! 7. intra-site communication is free; inter-site transfers ride the
//!    flow-level network ([`gridsched_net`]) over Tiers-like topologies
//!    ([`gridsched_topology`]);
//! 8. files are equally sized.
//!
//! [`GridSim`] is the deterministic discrete-event engine;
//! [`SimConfig`] describes one run (Table 1 defaults via
//! [`SimConfig::paper`]); [`MetricsReport`] is what an experiment gets
//! back — makespan (minutes, like the paper's figures), file-transfer
//! counts (Figure 5), per-site waiting/transfer times (Table 3), bytes on
//! the wire, replication/cancellation accounting.
//!
//! ```
//! use std::sync::Arc;
//! use gridsched_core::StrategyKind;
//! use gridsched_sim::{GridSim, SimConfig};
//! use gridsched_workload::coadd::CoaddConfig;
//!
//! let workload = Arc::new(CoaddConfig::small(0).generate());
//! let config = SimConfig::paper(workload, StrategyKind::Rest2)
//!     .with_sites(3)
//!     .with_seed(1);
//! let report = GridSim::new(config).run();
//! assert_eq!(report.tasks_completed, 200);
//! assert!(report.makespan_minutes > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checkpointing;
mod churn;
pub mod config;
pub mod engine;
mod guard;
pub mod metrics;
pub mod replication;
pub mod runner;
pub mod speeds;

pub use config::SimConfig;
pub use engine::GridSim;
pub use metrics::{MetricsReport, SiteMetrics};
pub use replication::ReplicationConfig;
pub use runner::{
    average_reports, report_spread, run_averaged, run_averaged_with_spread, ExperimentPoint,
    ReportSpread,
};
pub use speeds::SpeedModel;

// The observability layer: re-export so simulator users can inject a
// `Telemetry` handle (tests, examples) without an extra dependency line.
pub use gridsched_telemetry::{self as telemetry, Telemetry};

// The fault and checkpoint models live in their own crates; re-export the
// configuration surface so simulator users need only `gridsched_sim`.
pub use gridsched_checkpoint::{CheckpointConfig, CheckpointPolicy};
pub use gridsched_core::{BreakerState, ControlConfig};
pub use gridsched_des::ConfigError;
pub use gridsched_faults::{FaultConfig, FaultEvent, FaultKind, FaultTrace};
