//! # gridsched-checkpoint — checkpoint/restart for the grid simulator
//!
//! PR 1's fault subsystem made the grid churn; a crashed worker's task was
//! handed back to the scheduler with its progress zeroed, so storage
//! affinity (which pre-assigns everything) lost the most work to
//! re-execution. This crate supplies the *checkpoint model* the simulator
//! threads through the stack:
//!
//! * [`CheckpointPolicy`] — when to checkpoint: never, every fixed
//!   `--checkpoint-interval` seconds, or at the adaptive Young/Daly
//!   optimum `sqrt(2 · MTBF · C)` derived from the fault model;
//! * [`CheckpointConfig`] — the knobs of one run's checkpoint environment
//!   (policy + image size);
//! * [`ImageTracker`] — which site's data server holds each task's latest
//!   image (the per-site byte/loss accounting lives in
//!   `gridsched_storage::ImageVault`).
//!
//! The engine writes images to the worker's site data server with real
//! transfer cost through the flow-level network, and the images die with
//! that server: a data-server outage loses every image it held, so a task
//! whose only checkpoint sat on the failed server restarts from scratch.
//!
//! An inert config ([`CheckpointPolicy::None`]) must leave the simulation
//! byte-identical to the PR 1 churn engine; `tests/checkpoint_restart.rs`
//! property-tests this.
//!
//! ## Example
//!
//! ```
//! use gridsched_checkpoint::{CheckpointConfig, CheckpointPolicy};
//!
//! let ckpt = CheckpointConfig::fixed(600.0);
//! assert!(!ckpt.is_inert());
//! assert_eq!(ckpt.interval_s(None, 2.0), Some(600.0));
//!
//! // Young/Daly: sqrt(2 * MTBF * C) with C the estimated write cost.
//! let yd = CheckpointConfig::young_daly();
//! let t = yd.interval_s(Some(3600.0), 2.0).unwrap();
//! assert!((t - (2.0 * 3600.0 * 2.0f64).sqrt()).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use gridsched_des::config::{positive, ConfigError};
use gridsched_workload::TaskId;

/// When a running task checkpoints its progress.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum CheckpointPolicy {
    /// Never checkpoint (the PR 1 engine, byte for byte).
    None,
    /// Checkpoint every `interval_s` seconds of compute.
    Fixed {
        /// Seconds of compute between consecutive checkpoints.
        interval_s: f64,
    },
    /// The Young/Daly first-order optimum: checkpoint every
    /// `sqrt(2 · MTBF · C)` seconds, where `C` is the estimated cost of
    /// writing one image (derived per site from its access-link bandwidth)
    /// and MTBF comes from the fault model's worker churn process.
    YoungDaly,
    /// Self-tuning Young/Daly: same formula, but the MTBF is *estimated
    /// online* from the observed per-site failure interarrival process by
    /// the control plane (`gridsched_core::control`) — no declared MTBF
    /// needed, so it also works under fault traces and correlated bursts
    /// whose effective MTBF the declared figure misses. Until the first
    /// failures are observed the interval is unbounded (no checkpoints: a
    /// grid that has never failed has nothing to protect against yet).
    YoungDalyAdaptive,
}

/// The checkpoint environment of one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CheckpointConfig {
    /// When to checkpoint.
    pub policy: CheckpointPolicy,
    /// Size of one checkpoint image in bytes (written to — and restored
    /// from — a site data server over the flow-level network).
    pub size_bytes: f64,
}

/// Default checkpoint image size: 25 MB, one paper-sized file.
pub const DEFAULT_IMAGE_BYTES: f64 = 25e6;

impl CheckpointConfig {
    /// A configuration that never checkpoints (inert).
    #[must_use]
    pub fn none() -> Self {
        CheckpointConfig {
            policy: CheckpointPolicy::None,
            size_bytes: DEFAULT_IMAGE_BYTES,
        }
    }

    /// Fixed-interval checkpointing.
    #[must_use]
    pub fn fixed(interval_s: f64) -> Self {
        CheckpointConfig {
            policy: CheckpointPolicy::Fixed { interval_s },
            size_bytes: DEFAULT_IMAGE_BYTES,
        }
    }

    /// Young/Daly adaptive checkpointing (the simulator requires a worker
    /// MTBF in the fault model).
    #[must_use]
    pub fn young_daly() -> Self {
        CheckpointConfig {
            policy: CheckpointPolicy::YoungDaly,
            size_bytes: DEFAULT_IMAGE_BYTES,
        }
    }

    /// Self-tuning Young/Daly checkpointing: the MTBF is estimated online
    /// by the control plane instead of declared, so no fault-model MTBF is
    /// required. The simulator requires the adaptive-checkpoint control
    /// loop to be enabled alongside this policy (otherwise nothing would
    /// ever set an interval).
    #[must_use]
    pub fn young_daly_adaptive() -> Self {
        CheckpointConfig {
            policy: CheckpointPolicy::YoungDalyAdaptive,
            size_bytes: DEFAULT_IMAGE_BYTES,
        }
    }

    /// Overrides the checkpoint image size.
    #[must_use]
    pub fn with_size_bytes(mut self, bytes: f64) -> Self {
        self.size_bytes = bytes;
        self
    }

    /// Checks that a fixed interval and the image size are positive and
    /// finite. Which policies the fault model and the control loops
    /// support is the simulator's check, as they are not part of this
    /// config.
    ///
    /// # Errors
    ///
    /// The first rule broken, naming the field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if let CheckpointPolicy::Fixed { interval_s } = self.policy {
            positive("policy.interval_s", interval_s, "checkpoint interval")?;
        }
        positive("size_bytes", self.size_bytes, "checkpoint image size")
    }

    /// Whether this configuration never checkpoints. An inert config must
    /// leave the simulation bit-identical to running without any
    /// checkpoint config.
    #[must_use]
    pub fn is_inert(&self) -> bool {
        matches!(self.policy, CheckpointPolicy::None)
    }

    /// The checkpoint interval in seconds for a site whose estimated image
    /// write cost is `write_cost_s`, or `None` when the policy is
    /// [`CheckpointPolicy::None`].
    ///
    /// # Panics
    ///
    /// Panics if the policy is Young/Daly and `worker_mtbf_s` is `None` —
    /// the adaptive interval is derived from the fault model, so it needs
    /// one (`SimConfig::validate` rejects this combination up front).
    #[must_use]
    pub fn interval_s(&self, worker_mtbf_s: Option<f64>, write_cost_s: f64) -> Option<f64> {
        match self.policy {
            CheckpointPolicy::None => None,
            CheckpointPolicy::Fixed { interval_s } => Some(interval_s),
            CheckpointPolicy::YoungDaly => {
                let mtbf = worker_mtbf_s
                    .expect("young-daly checkpointing needs a worker MTBF (fault model)");
                Some(young_daly_interval(mtbf, write_cost_s))
            }
            // Bootstrap: unbounded until the control plane has observed
            // failures and re-derives the interval at tick time. The
            // declared MTBF, even if present, is deliberately not peeked.
            CheckpointPolicy::YoungDalyAdaptive => Some(f64::INFINITY),
        }
    }

    /// One-line human summary (embedded in report config summaries).
    #[must_use]
    pub fn summary(&self) -> String {
        match self.policy {
            CheckpointPolicy::None => "none".to_string(),
            CheckpointPolicy::Fixed { interval_s } => {
                format!(
                    "fixed interval={interval_s:.0}s image={:.0}MB",
                    self.size_bytes / 1e6
                )
            }
            CheckpointPolicy::YoungDaly => {
                format!("young-daly image={:.0}MB", self.size_bytes / 1e6)
            }
            CheckpointPolicy::YoungDalyAdaptive => {
                format!("young-daly-adaptive image={:.0}MB", self.size_bytes / 1e6)
            }
        }
    }
}

impl Default for CheckpointConfig {
    fn default() -> Self {
        CheckpointConfig::none()
    }
}

/// The Young/Daly first-order optimal checkpoint interval
/// `sqrt(2 · MTBF · C)` (seconds).
///
/// # Panics
///
/// Panics if either argument is not strictly positive and finite.
#[must_use]
pub fn young_daly_interval(mtbf_s: f64, write_cost_s: f64) -> f64 {
    assert!(mtbf_s > 0.0 && mtbf_s.is_finite(), "MTBF must be positive");
    assert!(
        write_cost_s > 0.0 && write_cost_s.is_finite(),
        "checkpoint cost must be positive"
    );
    (2.0 * mtbf_s * write_cost_s).sqrt()
}

/// Which site's data server holds each task's latest checkpoint image.
///
/// Only the newest image of a task is kept (a fresher image supersedes the
/// old one wherever it lived), and images only ever *improve*: a
/// lower-progress image — e.g. from a storage-affinity replica lagging
/// behind the primary — never replaces a higher-progress one.
#[derive(Debug, Clone, Default)]
pub struct ImageTracker {
    latest: HashMap<TaskId, usize>,
}

impl ImageTracker {
    /// An empty tracker.
    #[must_use]
    pub fn new() -> Self {
        ImageTracker::default()
    }

    /// The site holding `task`'s latest image, if any.
    #[must_use]
    pub fn site_of(&self, task: TaskId) -> Option<usize> {
        self.latest.get(&task).copied()
    }

    /// Records that `task`'s latest image now lives at `site`, returning
    /// the site of the superseded image if it lived elsewhere (the caller
    /// drops it from that site's vault).
    pub fn record(&mut self, task: TaskId, site: usize) -> Option<usize> {
        match self.latest.insert(task, site) {
            Some(old) if old != site => Some(old),
            _ => None,
        }
    }

    /// Forgets `task`'s image (task completed or image dropped).
    pub fn forget(&mut self, task: TaskId) {
        self.latest.remove(&task);
    }

    /// Drops every image held at `site` (its data server failed),
    /// returning the orphaned tasks.
    pub fn drop_site(&mut self, site: usize) -> Vec<TaskId> {
        let mut lost: Vec<TaskId> = self
            .latest
            .iter()
            .filter(|(_, &s)| s == site)
            .map(|(&t, _)| t)
            .collect();
        lost.sort_unstable_by_key(|t| t.index());
        for t in &lost {
            self.latest.remove(t);
        }
        lost
    }

    /// Number of tracked images.
    #[must_use]
    pub fn len(&self) -> usize {
        self.latest.len()
    }

    /// Whether no images are tracked.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.latest.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Panics with the text of the first rule `config` breaks, as the
    /// simulator does.
    fn assert_valid(config: &CheckpointConfig) {
        if let Err(e) = config.validate() {
            panic!("{e}");
        }
    }

    #[test]
    fn none_is_inert() {
        assert!(CheckpointConfig::none().is_inert());
        assert!(CheckpointConfig::default().is_inert());
        assert_eq!(CheckpointConfig::none().summary(), "none");
        assert_eq!(CheckpointConfig::none().interval_s(Some(1000.0), 1.0), None);
    }

    #[test]
    fn fixed_interval_ignores_fault_model() {
        let c = CheckpointConfig::fixed(450.0);
        assert!(!c.is_inert());
        assert_eq!(c.validate(), Ok(()));
        assert_eq!(c.interval_s(None, 99.0), Some(450.0));
        assert!(c.summary().contains("interval=450s"));
    }

    #[test]
    fn young_daly_matches_formula() {
        let c = CheckpointConfig::young_daly().with_size_bytes(50e6);
        let t = c.interval_s(Some(7200.0), 4.0).unwrap();
        assert!((t - (2.0f64 * 7200.0 * 4.0).sqrt()).abs() < 1e-9);
        assert!(c.summary().contains("young-daly image=50MB"));
    }

    #[test]
    #[should_panic(expected = "needs a worker MTBF")]
    fn young_daly_without_mtbf_panics() {
        let _ = CheckpointConfig::young_daly().interval_s(None, 1.0);
    }

    #[test]
    fn adaptive_young_daly_bootstraps_unbounded_without_mtbf() {
        let c = CheckpointConfig::young_daly_adaptive();
        assert!(!c.is_inert());
        // No MTBF needed — and even a declared one is not peeked.
        assert_eq!(c.interval_s(None, 2.0), Some(f64::INFINITY));
        assert_eq!(c.interval_s(Some(3600.0), 2.0), Some(f64::INFINITY));
        assert!(c.summary().contains("young-daly-adaptive image=25MB"));
    }

    #[test]
    #[should_panic(expected = "interval must be positive")]
    fn zero_interval_rejected() {
        assert_valid(&CheckpointConfig::fixed(0.0));
    }

    #[test]
    #[should_panic(expected = "size must be positive")]
    fn zero_size_rejected() {
        assert_valid(&CheckpointConfig::fixed(10.0).with_size_bytes(0.0));
    }

    #[test]
    fn tracker_supersedes_and_drops() {
        let mut tr = ImageTracker::new();
        assert!(tr.is_empty());
        assert_eq!(tr.record(TaskId(1), 0), None);
        // Re-recording at the same site is not a supersession elsewhere.
        assert_eq!(tr.record(TaskId(1), 0), None);
        // Moving to a new site reports the old site for vault cleanup.
        assert_eq!(tr.record(TaskId(1), 2), Some(0));
        assert_eq!(tr.site_of(TaskId(1)), Some(2));

        tr.record(TaskId(2), 2);
        tr.record(TaskId(3), 1);
        let lost = tr.drop_site(2);
        assert_eq!(lost, vec![TaskId(1), TaskId(2)]);
        assert_eq!(tr.site_of(TaskId(1)), None);
        assert_eq!(tr.site_of(TaskId(3)), Some(1));
        assert_eq!(tr.len(), 1);

        tr.forget(TaskId(3));
        assert!(tr.is_empty());
    }
}
