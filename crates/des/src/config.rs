//! The error every configuration check of the simulator returns.
//!
//! Each configuration type states its own rules once, in a `validate`
//! method built from [`require`] and [`positive`]; a config that holds
//! another prefixes the inner error's field with [`ConfigError::within`],
//! so the error names the setting by its full path from the outermost
//! config (`faults.worker_mtbf_s`).
//!
//! ```
//! use gridsched_des::config::{positive, ConfigError};
//!
//! let err = positive("mtbf_s", f64::INFINITY, "MTBF").unwrap_err().within("faults");
//! assert_eq!(err.field, "faults.mtbf_s");
//! assert_eq!(err.to_string(), "faults.mtbf_s: MTBF must be positive and finite");
//! ```

use std::fmt;

/// A setting that breaks one of the simulator's configuration rules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// The offending setting, as its field path from the config that was
    /// checked. A front end maps it back to its own name for the setting
    /// (a command-line flag, say).
    pub field: String,
    /// The rule the setting breaks.
    pub message: String,
}

impl ConfigError {
    /// The same error seen from the config that holds the checked one in
    /// its field `parent`.
    #[must_use]
    pub fn within(mut self, parent: &str) -> Self {
        self.field = format!("{parent}.{}", self.field);
        self
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.field, self.message)
    }
}

impl std::error::Error for ConfigError {}

/// `Ok` when the rule `holds`, else an error naming `field`.
///
/// # Errors
///
/// `message` about `field` when the rule does not hold.
pub fn require(holds: bool, field: &str, message: impl fmt::Display) -> Result<(), ConfigError> {
    if holds {
        return Ok(());
    }
    Err(ConfigError {
        field: field.to_string(),
        message: message.to_string(),
    })
}

/// The shortest sampling period, in sim seconds, a configuration may set:
/// the probe interval and the control tick. The run loop fires such a
/// cadence once per period between two dispatched events, and tasks last
/// minutes, so a period far below a second would fire without end in
/// practice (`1e-300` s ticks between every pair of events until killed).
/// Every shipped configuration samples every 5 s or more.
pub const MIN_CADENCE_S: f64 = 1.0;

/// The floor of a sampling period: `value` is at least [`MIN_CADENCE_S`].
/// Check [`positive`] first; this rule speaks only to the floor.
///
/// # Errors
///
/// "`what` must be at least 1 s" about `field` otherwise (NaN included).
pub fn cadence(field: &str, value: f64, what: &str) -> Result<(), ConfigError> {
    require(
        value >= MIN_CADENCE_S,
        field,
        format_args!("{what} must be at least {MIN_CADENCE_S} s"),
    )
}

/// The range rule of a duration, rate or size: `value` is positive and
/// finite.
///
/// # Errors
///
/// "`what` must be positive and finite" about `field` otherwise (NaN
/// included).
pub fn positive(field: &str, value: f64, what: &str) -> Result<(), ConfigError> {
    require(
        value > 0.0 && value.is_finite(),
        field,
        format_args!("{what} must be positive and finite"),
    )
}
