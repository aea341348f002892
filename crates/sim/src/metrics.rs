//! Run metrics: everything the paper's figures and tables report.

use serde::{Deserialize, Serialize};

use crate::config::ConfigSummary;

/// Per-site accounting (Table 3 of the paper reports these per-request
/// averages for one site).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SiteMetrics {
    /// Batch requests served by this site's data server.
    pub requests: u64,
    /// Σ waiting time (enqueue → service start), seconds.
    pub waiting_time_s: f64,
    /// Σ transfer time (service start → last missing file arrived),
    /// seconds.
    pub transfer_time_s: f64,
    /// Files fetched from the external file server.
    pub file_transfers: u64,
    /// Bytes fetched from the external file server.
    pub bytes_transferred: f64,
    /// Tasks that started executing at this site.
    pub tasks_started: u64,
    /// Files evicted by the data server.
    pub evictions: u64,
    /// Σ seconds this site's workers spent crashed (summed over workers).
    pub worker_downtime_s: f64,
    /// Σ seconds this site's data server was down.
    pub server_downtime_s: f64,
    /// Cached files lost to data-server outages at this site.
    pub files_lost: u64,
}

impl SiteMetrics {
    /// Average request waiting time in hours (Table 3 column 1).
    #[must_use]
    pub fn avg_waiting_hours(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.waiting_time_s / self.requests as f64 / 3600.0
        }
    }

    /// Average batch transfer time in hours (Table 3 column 2).
    #[must_use]
    pub fn avg_transfer_hours(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.transfer_time_s / self.requests as f64 / 3600.0
        }
    }
}

/// The result of one simulation run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsReport {
    /// The configuration that produced this report.
    pub config: ConfigSummary,
    /// Job makespan in minutes (the paper's main metric).
    pub makespan_minutes: f64,
    /// Total file transfers from the external file server (Figure 5).
    pub file_transfers: u64,
    /// Total bytes moved from the external file server.
    pub bytes_transferred: f64,
    /// Bytes of transfers that were cancelled mid-flight (aborted
    /// replicas) — wasted bandwidth.
    pub cancelled_bytes: f64,
    /// Tasks completed (must equal the workload size).
    pub tasks_completed: u64,
    /// Replica executions launched (task-centric storage affinity only).
    pub replicas_launched: u64,
    /// Replica executions aborted because another copy won. Counts only
    /// executions that were *launched as replicas* — a primary execution
    /// cancelled because its replica finished first is in
    /// [`MetricsReport::primaries_cancelled`] instead, so on fault-free
    /// runs `replicas_launched == replicas_cancelled + replicas_completed`
    /// (with faults, add [`MetricsReport::replicas_lost`]).
    pub replicas_cancelled: u64,
    /// Replica executions that finished first (won their race) — completed
    /// useful work, as opposed to the cancelled speculative flows.
    pub replicas_completed: u64,
    /// Primary executions cancelled because a replica of the same task won.
    pub primaries_cancelled: u64,
    /// Replica executions killed by worker crashes (fault injection).
    pub replicas_lost: u64,
    /// Per-site breakdown, indexed by site id.
    pub per_site: Vec<SiteMetrics>,
    /// Proactive replication pushes issued (ablation extension).
    pub replication_pushes: u64,
    /// Bytes moved by proactive replication (included in
    /// `bytes_transferred`).
    pub replication_bytes: f64,
    /// Total DES events dispatched (diagnostic).
    pub events_dispatched: u64,
    /// Storage-layer evictions across all sites.
    pub total_evictions: u64,
    /// Inserts that overflowed capacity because everything was pinned.
    pub overflow_inserts: u64,
    // --- disruption accounting: all zero on fault-free runs except
    // `wasted_compute_s`, which also counts replica cancellations ---
    /// Executions killed by a fault with no other replica running — each
    /// forces a re-execution.
    pub tasks_lost: u64,
    /// Executions (initial or replica) handed out for tasks that had
    /// previously been fault-lost. Always ≥ [`MetricsReport::tasks_lost`]
    /// once the run completes.
    pub re_executions: u64,
    /// Worker crash events injected.
    pub worker_crashes: u64,
    /// Data-server outage events injected.
    pub server_outages: u64,
    /// Cached files lost to data-server outages (sum over sites).
    pub files_lost: u64,
    /// Compute-seconds thrown away by aborted executions (fault kills and
    /// replica cancellations).
    pub wasted_compute_s: f64,
    // --- checkpoint/restart accounting: all zero when checkpointing is
    // off ---
    /// Checkpoint images successfully written to a site data server.
    pub checkpoints_written: u64,
    /// Checkpoint images lost to data-server outages.
    pub checkpoints_lost: u64,
    /// Executions that resumed from a surviving checkpoint image instead
    /// of restarting from scratch.
    pub checkpoint_restores: u64,
    /// Seconds spent on checkpointing itself: compute stalls while writing
    /// images plus restore-image transfer time.
    pub checkpoint_overhead_s: f64,
    /// Compute-seconds restores rescued from re-execution (the progress a
    /// resumed execution did *not* have to redo).
    pub work_saved_s: f64,
    // --- network faults & transfer resilience: all zero when link faults
    // and the transfer guard are off. `#[serde(default)]` keeps reports
    // written before this accounting existed deserializable ---
    /// Link outage/degradation windows opened (stochastic + scripted).
    #[serde(default)]
    pub link_outages: u64,
    /// Σ seconds links spent down or degraded (summed over links, clipped
    /// to the horizon like worker/server downtime).
    #[serde(default)]
    pub link_downtime_s: f64,
    /// Batch fetches cancelled by the transfer guard's timeout.
    #[serde(default)]
    pub xfer_timeouts: u64,
    /// Retry attempts actually dispatched after a timeout.
    #[serde(default)]
    pub xfer_retries: u64,
    /// Retries that re-sourced the file from an alternate replica site.
    #[serde(default)]
    pub xfer_failovers: u64,
    /// Bytes already delivered that a resuming retry did *not* re-send.
    #[serde(default)]
    pub xfer_bytes_resumed: f64,
    /// Bytes a naive restart-from-zero retry threw away and re-sent.
    #[serde(default)]
    pub xfer_bytes_retransmitted: f64,
    // --- flow conservation ledger: every network flow the run ever
    // started ends in exactly one of the four sinks below or is still
    // active at report time (asserted in `GridSim::report`) ---
    /// Network flows started (batch fetches, checkpoint writes/restores,
    /// proactive replication pushes, retry re-fetches).
    #[serde(default)]
    pub flows_started: u64,
    /// Flows that delivered all their bytes.
    #[serde(default)]
    pub flows_completed: u64,
    /// Flows cancelled by replica abort, worker crash, or server failure.
    #[serde(default)]
    pub flows_aborted: u64,
    /// Flows cancelled by a transfer timeout with retry budget remaining.
    #[serde(default)]
    pub flows_retrying: u64,
    /// Flows cancelled by a transfer timeout with the budget exhausted —
    /// each one requeued its task.
    #[serde(default)]
    pub flows_requeued: u64,
}

impl MetricsReport {
    /// Makespan in hours.
    #[must_use]
    pub fn makespan_hours(&self) -> f64 {
        self.makespan_minutes / 60.0
    }

    /// Average per-request waiting time across all sites, hours.
    #[must_use]
    pub fn avg_waiting_hours(&self) -> f64 {
        let requests: u64 = self.per_site.iter().map(|s| s.requests).sum();
        if requests == 0 {
            return 0.0;
        }
        let total: f64 = self.per_site.iter().map(|s| s.waiting_time_s).sum();
        total / requests as f64 / 3600.0
    }

    /// Average per-request transfer time across all sites, hours.
    #[must_use]
    pub fn avg_transfer_hours(&self) -> f64 {
        let requests: u64 = self.per_site.iter().map(|s| s.requests).sum();
        if requests == 0 {
            return 0.0;
        }
        let total: f64 = self.per_site.iter().map(|s| s.transfer_time_s).sum();
        total / requests as f64 / 3600.0
    }

    /// Average number of file transfers per site.
    #[must_use]
    pub fn avg_transfers_per_site(&self) -> f64 {
        if self.per_site.is_empty() {
            return 0.0;
        }
        self.file_transfers as f64 / self.per_site.len() as f64
    }

    /// Fraction of the makespan `site`'s data server was up, in `[0, 1]`
    /// (1.0 on fault-free runs or a zero-length run).
    ///
    /// # Panics
    ///
    /// Panics if `site` is out of range.
    #[must_use]
    pub fn site_availability(&self, site: usize) -> f64 {
        let horizon = self.makespan_minutes * 60.0;
        if horizon <= 0.0 {
            return 1.0;
        }
        (1.0 - self.per_site[site].server_downtime_s / horizon).clamp(0.0, 1.0)
    }

    /// Mean data-server availability across sites.
    #[must_use]
    pub fn mean_server_availability(&self) -> f64 {
        if self.per_site.is_empty() {
            return 1.0;
        }
        (0..self.per_site.len())
            .map(|s| self.site_availability(s))
            .sum::<f64>()
            / self.per_site.len() as f64
    }

    /// Mean worker availability: the fraction of worker-seconds the grid's
    /// workers were up, in `[0, 1]`.
    #[must_use]
    pub fn mean_worker_availability(&self) -> f64 {
        let horizon = self.makespan_minutes * 60.0;
        let worker_seconds = horizon * (self.per_site.len() * self.config.workers_per_site) as f64;
        if worker_seconds <= 0.0 {
            return 1.0;
        }
        let down: f64 = self.per_site.iter().map(|s| s.worker_downtime_s).sum();
        (1.0 - down / worker_seconds).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn site_averages() {
        let s = SiteMetrics {
            requests: 2,
            waiting_time_s: 7200.0,
            transfer_time_s: 3600.0,
            ..SiteMetrics::default()
        };
        assert!((s.avg_waiting_hours() - 1.0).abs() < 1e-12);
        assert!((s.avg_transfer_hours() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn zero_requests_safe() {
        let s = SiteMetrics::default();
        assert_eq!(s.avg_waiting_hours(), 0.0);
        assert_eq!(s.avg_transfer_hours(), 0.0);
    }
}
