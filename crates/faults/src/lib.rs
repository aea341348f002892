//! # gridsched-faults — fault injection & churn for the grid simulator
//!
//! The paper's system model assumes a perfectly reliable grid: every worker
//! and every data server lives forever. Real grids churn — workers crash
//! and rejoin, data servers go down and lose their cached replicas. This
//! crate supplies the *fault model* the simulator (`gridsched-sim`) drives
//! through the whole stack:
//!
//! * [`FaultConfig`] — the knobs of one run's fault environment: seeded
//!   exponential MTBF/MTTR processes per worker and per data server, plus
//!   an optional deterministic [`FaultTrace`] of scripted events;
//! * [`FaultTimeline`] — a per-entity alternating-renewal process
//!   (up for `Exp(MTBF)`, down for a Weibull repair of the configured mean
//!   and shape — shape 1 is the classic `Exp(MTTR)`, shapes < 1 are
//!   fat-tailed), each entity drawing from its own decorrelated RNG stream
//!   so event interleaving never perturbs another entity's timeline;
//! * [`FaultTrace`] / [`FaultEvent`] — scripted fault timelines with a
//!   line-oriented text format for the CLI's `--fault-trace`.
//!
//! Everything is deterministic given the master seed: the same
//! configuration always produces the same failure/recovery timeline.
//!
//! ## Example
//!
//! ```
//! use gridsched_faults::{Entity, FaultConfig, FaultTimeline};
//!
//! let faults = FaultConfig::none().with_worker_faults(3600.0, 600.0);
//! assert!(!faults.is_inert());
//!
//! // Two timelines for the same entity replay identically.
//! let mut a = FaultTimeline::new(7, Entity::Worker(3), 3600.0, 600.0);
//! let mut b = FaultTimeline::new(7, Entity::Worker(3), 3600.0, 600.0);
//! assert_eq!(a.time_to_failure(), b.time_to_failure());
//! assert_eq!(a.time_to_repair(), b.time_to_repair());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod timeline;
pub mod trace;

pub use timeline::{Entity, FaultTimeline};
pub use trace::{FaultEvent, FaultKind, FaultTrace};

use serde::{Deserialize, Serialize};

use gridsched_des::config::{positive, require, ConfigError};

/// The fault environment of one simulation run.
///
/// All rates are mean seconds of the corresponding exponential
/// distribution. `None` disables the respective stochastic process; a
/// config with no processes and no trace is *inert* and must reproduce the
/// faultless engine byte for byte (property-tested in `tests/`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Mean time between failures of each worker, seconds (`None` = workers
    /// never crash stochastically).
    pub worker_mtbf_s: Option<f64>,
    /// Mean time to repair of a crashed worker, seconds.
    pub worker_mttr_s: f64,
    /// Weibull shape of the worker repair distribution (1.0 = exponential,
    /// < 1.0 fat-tailed: many quick repairs, occasional very long ones).
    pub worker_mttr_shape: f64,
    /// Mean time between outages of each site's data server, seconds
    /// (`None` = servers never fail stochastically).
    pub server_mtbf_s: Option<f64>,
    /// Mean time to repair of a failed data server, seconds.
    pub server_mttr_s: f64,
    /// Weibull shape of the server repair distribution (1.0 = exponential).
    pub server_mttr_shape: f64,
    /// Mean time between faults of each network link, seconds (`None` =
    /// links never fault stochastically).
    pub link_mtbf_s: Option<f64>,
    /// Mean duration of a link fault window, seconds.
    pub link_mttr_s: f64,
    /// What a link fault *is*: `None` ⇒ a hard outage (the link goes down
    /// and crossing flows stall); `Some(f)` with `f ∈ (0, 1)` ⇒ a
    /// degraded-bandwidth window (the link stays up at `capacity × f`).
    pub link_degrade_factor: Option<f64>,
    /// Scripted fault events, applied in addition to the stochastic
    /// processes.
    pub trace: Option<FaultTrace>,
    /// Mean time between correlated crash *bursts*, seconds (`None` =
    /// independent crashes only). Each burst strikes one uniformly-drawn
    /// site and crashes up to [`burst_size`](FaultConfig::burst_size) of
    /// its live workers at once — the crash-storm scenario where static
    /// tuning loses. Requires worker faults (the burst victims repair
    /// through their own MTTR process).
    pub burst_rate_s: Option<f64>,
    /// Workers crashed per burst (meaningful only with
    /// [`burst_rate_s`](FaultConfig::burst_rate_s)).
    pub burst_size: u32,
}

impl FaultConfig {
    /// A configuration that injects nothing (inert).
    #[must_use]
    pub fn none() -> Self {
        FaultConfig {
            worker_mtbf_s: None,
            worker_mttr_s: 0.0,
            worker_mttr_shape: 1.0,
            server_mtbf_s: None,
            server_mttr_s: 0.0,
            server_mttr_shape: 1.0,
            link_mtbf_s: None,
            link_mttr_s: 0.0,
            link_degrade_factor: None,
            trace: None,
            burst_rate_s: None,
            burst_size: 0,
        }
    }

    /// Enables worker churn: crashes every `Exp(mtbf_s)`, repairs after
    /// `Exp(mttr_s)`.
    #[must_use]
    pub fn with_worker_faults(mut self, mtbf_s: f64, mttr_s: f64) -> Self {
        self.worker_mtbf_s = Some(mtbf_s);
        self.worker_mttr_s = mttr_s;
        self
    }

    /// Enables data-server churn: outages every `Exp(mtbf_s)` with loss of
    /// all unpinned cached files, repairs after `Exp(mttr_s)`.
    #[must_use]
    pub fn with_server_faults(mut self, mtbf_s: f64, mttr_s: f64) -> Self {
        self.server_mtbf_s = Some(mtbf_s);
        self.server_mttr_s = mttr_s;
        self
    }

    /// Sets the Weibull shape of the worker repair distribution (1.0 keeps
    /// the exponential repairs byte-for-byte; the ROADMAP's fat-tailed
    /// follow-up uses shapes < 1).
    #[must_use]
    pub fn with_worker_repair_shape(mut self, shape: f64) -> Self {
        self.worker_mttr_shape = shape;
        self
    }

    /// Sets the Weibull shape of the server repair distribution (1.0 =
    /// exponential).
    #[must_use]
    pub fn with_server_repair_shape(mut self, shape: f64) -> Self {
        self.server_mttr_shape = shape;
        self
    }

    /// Enables network-link churn: each link faults every `Exp(mtbf_s)`
    /// for an `Exp(mttr_s)` window. By default a fault is a hard outage
    /// (crossing flows stall at rate zero); see
    /// [`FaultConfig::with_link_degrade_factor`] for degraded-bandwidth
    /// windows instead.
    #[must_use]
    pub fn with_link_faults(mut self, mtbf_s: f64, mttr_s: f64) -> Self {
        self.link_mtbf_s = Some(mtbf_s);
        self.link_mttr_s = mttr_s;
        self
    }

    /// Makes link fault windows *degraded-bandwidth* windows (the link
    /// stays up at `capacity × factor`) instead of hard outages.
    #[must_use]
    pub fn with_link_degrade_factor(mut self, factor: f64) -> Self {
        self.link_degrade_factor = Some(factor);
        self
    }

    /// Attaches a scripted fault trace (replayed alongside any stochastic
    /// processes).
    #[must_use]
    pub fn with_trace(mut self, trace: FaultTrace) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Enables correlated site-scoped crash bursts: every `Exp(rate_s)` a
    /// uniformly-drawn site loses up to `size` live workers at once.
    /// Burst victims repair through the normal worker-MTTR process, so
    /// worker faults must also be enabled ([`FaultConfig::validate`]).
    /// Disabled bursts are byte-identical to the independent model.
    #[must_use]
    pub fn with_worker_bursts(mut self, rate_s: f64, size: u32) -> Self {
        self.burst_rate_s = Some(rate_s);
        self.burst_size = size;
        self
    }

    /// Checks the fault model's rules: every mean and repair shape of an
    /// enabled process positive and finite, a degrade factor strictly
    /// inside `(0, 1)` (`1` would be a no-op, `0` an outage), and bursts
    /// of at least one worker, only alongside worker faults. Whether a
    /// scripted trace fits the grid is the simulator's check
    /// ([`FaultTrace::validate`]), as the grid is not part of this config.
    ///
    /// # Errors
    ///
    /// The first rule broken, naming the field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if let Some(mtbf) = self.worker_mtbf_s {
            positive("worker_mtbf_s", mtbf, "worker MTBF")?;
            positive("worker_mttr_s", self.worker_mttr_s, "worker MTTR")?;
        }
        if let Some(mtbf) = self.server_mtbf_s {
            positive("server_mtbf_s", mtbf, "server MTBF")?;
            positive("server_mttr_s", self.server_mttr_s, "server MTTR")?;
        }
        if let Some(mtbf) = self.link_mtbf_s {
            positive("link_mtbf_s", mtbf, "link MTBF")?;
            positive("link_mttr_s", self.link_mttr_s, "link MTTR")?;
        }
        positive(
            "worker_mttr_shape",
            self.worker_mttr_shape,
            "worker repair shape",
        )?;
        positive(
            "server_mttr_shape",
            self.server_mttr_shape,
            "server repair shape",
        )?;
        if let Some(f) = self.link_degrade_factor {
            require(
                f > 0.0 && f < 1.0,
                "link_degrade_factor",
                "link degrade factor must be in (0, 1)",
            )?;
        }
        if let Some(rate) = self.burst_rate_s {
            positive("burst_rate_s", rate, "burst rate")?;
            require(
                self.burst_size >= 1,
                "burst_size",
                "burst size must be >= 1",
            )?;
            require(
                self.worker_mtbf_s.is_some(),
                "burst_rate_s",
                "correlated crash bursts need worker faults (burst victims repair \
                 through the worker MTTR process)",
            )?;
        }
        Ok(())
    }

    /// Whether this configuration injects no faults at all. An inert config
    /// must leave the simulation bit-identical to running without any fault
    /// config.
    #[must_use]
    pub fn is_inert(&self) -> bool {
        self.worker_mtbf_s.is_none()
            && self.server_mtbf_s.is_none()
            && self.link_mtbf_s.is_none()
            && self.trace.as_ref().is_none_or(|t| t.events.is_empty())
    }

    /// One-line human summary (embedded in report config summaries).
    #[must_use]
    pub fn summary(&self) -> String {
        if self.is_inert() {
            return "none".to_string();
        }
        let mut parts = Vec::new();
        let shape = |k: f64| {
            if k == 1.0 {
                String::new()
            } else {
                format!(" repair-shape={k:.2}")
            }
        };
        if let Some(mtbf) = self.worker_mtbf_s {
            parts.push(format!(
                "worker mtbf={mtbf:.0}s mttr={:.0}s{}",
                self.worker_mttr_s,
                shape(self.worker_mttr_shape)
            ));
        }
        if let Some(mtbf) = self.server_mtbf_s {
            parts.push(format!(
                "server mtbf={mtbf:.0}s mttr={:.0}s{}",
                self.server_mttr_s,
                shape(self.server_mttr_shape)
            ));
        }
        if let Some(mtbf) = self.link_mtbf_s {
            let mode = match self.link_degrade_factor {
                Some(f) => format!(" degrade={f:.2}"),
                None => String::new(),
            };
            parts.push(format!(
                "link mtbf={mtbf:.0}s mttr={:.0}s{mode}",
                self.link_mttr_s
            ));
        }
        if let Some(rate) = self.burst_rate_s {
            parts.push(format!("bursts rate={rate:.0}s size={}", self.burst_size));
        }
        if let Some(t) = &self.trace {
            if !t.events.is_empty() {
                parts.push(format!("trace={} events", t.events.len()));
            }
        }
        parts.join("; ")
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Panics with the text of the first rule `config` breaks, as the
    /// simulator does.
    fn assert_valid(config: &FaultConfig) {
        if let Err(e) = config.validate() {
            panic!("{e}");
        }
    }

    #[test]
    fn none_is_inert() {
        assert!(FaultConfig::none().is_inert());
        assert!(FaultConfig::default().is_inert());
        assert_eq!(FaultConfig::none().summary(), "none");
    }

    #[test]
    fn empty_trace_is_inert() {
        let cfg = FaultConfig::none().with_trace(FaultTrace::default());
        assert!(cfg.is_inert());
    }

    #[test]
    fn processes_are_not_inert() {
        let w = FaultConfig::none().with_worker_faults(3600.0, 600.0);
        assert!(!w.is_inert());
        assert!(w.summary().contains("worker mtbf=3600s"));
        let s = FaultConfig::none().with_server_faults(86400.0, 1800.0);
        assert!(!s.is_inert());
        assert!(s.summary().contains("server mtbf=86400s"));
    }

    #[test]
    #[should_panic(expected = "MTBF must be positive")]
    fn zero_mtbf_rejected() {
        assert_valid(&FaultConfig::none().with_worker_faults(0.0, 600.0));
    }

    #[test]
    fn repair_shapes_surface_in_summary() {
        let cfg = FaultConfig::none()
            .with_worker_faults(3600.0, 600.0)
            .with_worker_repair_shape(0.5);
        assert!(
            cfg.summary().contains("repair-shape=0.50"),
            "{}",
            cfg.summary()
        );
        // Shape 1.0 stays silent — it is the legacy exponential.
        let plain = FaultConfig::none().with_server_faults(7200.0, 900.0);
        assert!(!plain.summary().contains("repair-shape"));
    }

    #[test]
    #[should_panic(expected = "repair shape must be positive")]
    fn negative_shape_rejected() {
        assert_valid(&FaultConfig::none().with_worker_repair_shape(-1.0));
    }

    #[test]
    fn bursts_surface_in_summary() {
        let cfg = FaultConfig::none()
            .with_worker_faults(3600.0, 600.0)
            .with_worker_bursts(1800.0, 4);
        assert!(!cfg.is_inert());
        assert_eq!(cfg.validate(), Ok(()));
        assert!(
            cfg.summary().contains("bursts rate=1800s size=4"),
            "{}",
            cfg.summary()
        );
        // No bursts: no burst summary part, and none() stays inert.
        let plain = FaultConfig::none().with_worker_faults(3600.0, 600.0);
        assert!(!plain.summary().contains("bursts"));
    }

    #[test]
    fn link_faults_surface_in_summary() {
        let hard = FaultConfig::none().with_link_faults(7200.0, 300.0);
        assert!(!hard.is_inert());
        assert!(
            hard.summary().contains("link mtbf=7200s mttr=300s"),
            "{}",
            hard.summary()
        );
        assert!(!hard.summary().contains("degrade"));
        let soft = FaultConfig::none()
            .with_link_faults(7200.0, 300.0)
            .with_link_degrade_factor(0.25);
        assert!(
            soft.summary().contains("degrade=0.25"),
            "{}",
            soft.summary()
        );
    }

    #[test]
    #[should_panic(expected = "link MTBF must be positive")]
    fn zero_link_mtbf_rejected() {
        assert_valid(&FaultConfig::none().with_link_faults(0.0, 300.0));
    }

    #[test]
    #[should_panic(expected = "degrade factor must be in (0, 1)")]
    fn degrade_factor_one_rejected() {
        assert_valid(&FaultConfig::none().with_link_degrade_factor(1.0));
    }

    #[test]
    #[should_panic(expected = "burst rate must be positive")]
    fn zero_burst_rate_rejected() {
        assert_valid(&FaultConfig::none().with_worker_bursts(0.0, 4));
    }

    #[test]
    #[should_panic(expected = "burst size must be >= 1")]
    fn zero_burst_size_rejected() {
        assert_valid(&FaultConfig::none().with_worker_bursts(1800.0, 0));
    }
}
