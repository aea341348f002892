//! The benchmark's workloads: each turns `--seed` into a fixed set of
//! simulation inputs whose cost is dominated by a different layer of the
//! simulator.
//!
//! A workload is a *family* of inputs, not one input: a run cycles through
//! [`INPUTS_PER_RUN`] inputs derived from the seed (workload, topology and
//! master seeds), so a figure reported for one seed averages over several
//! grids instead of riding on one topology's luck. The program receives only
//! the generated [`SimConfig`]s.

use std::sync::Arc;

use gridsched_core::StrategyKind;
use gridsched_sim::{CheckpointConfig, FaultConfig, MetricsReport, SimConfig};
use gridsched_workload::coadd::CoaddConfig;

/// Inputs per run. Every timed run cycles through all of them equally.
pub const INPUTS_PER_RUN: u64 = 16;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Worker-centric `combined.2` over 40 sites with storage for the whole
    /// file universe and small (2 MB) files that keep few flows in the
    /// network: every request is a ranked pick over a deep pending queue and
    /// every file arrival updates the site's view, while nothing is ever
    /// evicted and nothing fails.
    Sched,
    /// The `workqueue` baseline (an O(1) FIFO pop per decision) on 25 sites
    /// with 4 workers each: the scheduler is nearly free, so the cost is the
    /// event queue and the max–min solver re-sharing many concurrent flows.
    Net,
    /// Worker-centric `rest.2` with data servers holding 4% of the file
    /// universe: LRU eviction churns on every batch and every eviction is
    /// pushed into the scheduler's per-site view.
    Storage,
    /// `rest.2` under worker and server churn and hard link outages, with
    /// the transfer guard (timeout, retry, failover, resume) and Young–Daly
    /// checkpointing: the fault, guard and checkpoint handlers run
    /// throughout.
    Faults,
}

impl Kind {
    pub const ALL: [Kind; 4] = [Kind::Sched, Kind::Net, Kind::Storage, Kind::Faults];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Sched => "sched",
            Kind::Net => "net",
            Kind::Storage => "storage",
            Kind::Faults => "faults",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The `i`-th input of this workload for `seed`. Deterministic in
    /// `(self, seed, i)`; the workload generation it performs is part of the
    /// set-up the benchmark times.
    pub fn input(self, seed: u64, i: u64) -> SimConfig {
        let stream = |k: u64| mix(mix(seed, i), k ^ self as u64);
        let (tasks, strategy, sites, workers_per_site) = match self {
            Kind::Sched => (250, StrategyKind::Combined2, 40, 1),
            Kind::Net => (150, StrategyKind::Workqueue, 25, 4),
            Kind::Storage => (350, StrategyKind::Rest2, 10, 2),
            Kind::Faults => (300, StrategyKind::Rest2, 10, 2),
        };
        let mut coadd = CoaddConfig::paper_6000();
        coadd.tasks = tasks;
        coadd.seed = stream(0);
        if self == Kind::Sched {
            coadd.file_size_bytes = 2e6;
        }
        let workload = Arc::new(coadd.generate());
        let files = workload.file_count();
        let config = SimConfig::paper(workload, strategy)
            .with_sites(sites)
            .with_workers_per_site(workers_per_site)
            .with_topology_seed(stream(1))
            .with_seed(stream(2));
        match self {
            Kind::Sched | Kind::Net => config.with_capacity(files),
            Kind::Storage => config.with_capacity((files / 25).max(1)),
            Kind::Faults => config
                .with_capacity(files)
                .with_faults(
                    FaultConfig::none()
                        .with_worker_faults(20_000.0, 1_800.0)
                        .with_server_faults(60_000.0, 1_200.0)
                        .with_link_faults(15_000.0, 900.0),
                )
                .with_checkpointing(CheckpointConfig::young_daly())
                .with_transfer_timeout(3.0)
                .with_transfer_retries(3)
                .with_retry_backoff(60.0),
        }
    }

    /// Checks one report of an input with `tasks` tasks. Beyond the invariants
    /// every run must keep, each workload checks that it still exercises
    /// the layer it was chosen for, so a configuration that silently stops
    /// stressing that layer fails instead of timing something else.
    pub fn check(self, tasks: u64, report: &MetricsReport) -> Result<(), String> {
        if report.tasks_completed != tasks {
            return Err(format!(
                "completed {} of {tasks} tasks",
                report.tasks_completed
            ));
        }
        if !(report.makespan_minutes.is_finite() && report.makespan_minutes > 0.0) {
            return Err(format!("makespan {} min", report.makespan_minutes));
        }
        let sinks = report.flows_completed
            + report.flows_aborted
            + report.flows_retrying
            + report.flows_requeued;
        if report.flows_started == 0 || sinks > report.flows_started {
            return Err(format!(
                "flow ledger: {sinks} ended of {} started",
                report.flows_started
            ));
        }
        if report.file_transfers == 0 || report.events_dispatched < tasks {
            return Err("no transfers or too few events".into());
        }
        let exercised = match self {
            Kind::Sched | Kind::Net => report.total_evictions == 0 && report.worker_crashes == 0,
            Kind::Storage => report.total_evictions > 0,
            Kind::Faults => {
                report.worker_crashes > 0 && report.link_outages > 0 && report.xfer_retries > 0
            }
        };
        if !exercised {
            return Err(format!(
                "input does not exercise its layer (evictions {}, crashes {}, \
                 link outages {}, timeouts {})",
                report.total_evictions,
                report.worker_crashes,
                report.link_outages,
                report.xfer_timeouts
            ));
        }
        Ok(())
    }
}

/// SplitMix64 finaliser over two words: independent, well-spread seeds for
/// the streams of one input.
pub fn mix(a: u64, b: u64) -> u64 {
    let mut z = a
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(b)
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
