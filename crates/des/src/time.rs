//! Simulation time and durations.
//!
//! [`SimTime`] is an absolute timestamp on the simulation clock and
//! [`SimDuration`] is a length of simulated time. Both are thin wrappers
//! around `f64` seconds that (a) are totally ordered — construction from NaN
//! or a negative value panics — and (b) make unit mistakes (seconds vs
//! minutes vs hours) explicit at the API boundary, following the newtype
//! guidance of the Rust API guidelines (C-NEWTYPE).
//!
//! # Integer order
//!
//! Every value is `+0.0`, positive or `+∞`: constructors reject NaN and
//! negatives and fold `−0.0` to `+0.0`; sums of such values stay such
//! values, and so does `later − earlier` for a finite `earlier` (`x − x`
//! is `+0.0`). On those floats the IEEE 754 bit patterns, read as `u64`,
//! increase exactly as the values do, so `Ord` compares the bits as
//! integers: one integer compare per event-queue sift instead of a float
//! compare and a NaN check.
//!
//! The paper reports makespans in **minutes**; the simulator computes in
//! seconds and converts at the reporting boundary via [`SimDuration::as_minutes`].

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

use serde::{Deserialize, Serialize};

/// An absolute point on the simulation clock, in seconds since simulation
/// start.
///
/// `SimTime` is `Copy`, totally ordered and NaN-free: all constructors panic
/// when handed a NaN or a negative value and fold `−0.0` to `+0.0`, so `Ord`
/// can compare bit patterns (see the [module docs](self)).
///
/// # Example
///
/// ```
/// use gridsched_des::{SimDuration, SimTime};
///
/// let t = SimTime::ZERO + SimDuration::from_minutes(2.0);
/// assert_eq!(t.as_secs(), 120.0);
/// ```
#[derive(Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(transparent)]
pub struct SimTime(f64);

/// A span of simulated time, in seconds. May be zero but never negative or
/// NaN.
#[derive(Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(transparent)]
pub struct SimDuration(f64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0.0);

    /// A timestamp later than every event a simulation can produce.
    pub const FAR_FUTURE: SimTime = SimTime(f64::INFINITY);

    /// Creates a timestamp `secs` seconds after simulation start.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is NaN or negative.
    #[must_use]
    pub fn from_secs(secs: f64) -> Self {
        assert!(!secs.is_nan(), "SimTime must not be NaN");
        assert!(secs >= 0.0, "SimTime must not be negative: {secs}");
        // `−0.0 + 0.0 == +0.0`; every other value passes unchanged.
        SimTime(secs + 0.0)
    }

    /// Creates a timestamp `minutes` minutes after simulation start.
    ///
    /// # Panics
    ///
    /// Panics if `minutes` is NaN or negative.
    #[must_use]
    pub fn from_minutes(minutes: f64) -> Self {
        Self::from_secs(minutes * 60.0)
    }

    /// The timestamp as seconds since simulation start.
    #[must_use]
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// The timestamp as minutes since simulation start (the paper's figures
    /// use minutes).
    #[must_use]
    pub fn as_minutes(self) -> f64 {
        self.0 / 60.0
    }

    /// The timestamp as hours since simulation start (Table 3 of the paper
    /// uses hours).
    #[must_use]
    pub fn as_hours(self) -> f64 {
        self.0 / 3600.0
    }

    /// Whether this is a finite timestamp (i.e. not [`SimTime::FAR_FUTURE`]).
    #[must_use]
    pub fn is_finite(self) -> bool {
        self.0.is_finite()
    }

    /// Duration elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self` (simulated time never runs
    /// backwards).
    #[must_use]
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        assert!(
            earlier.0 <= self.0,
            "duration_since: earlier={earlier:?} is after self={self:?}"
        );
        SimDuration(self.0 - earlier.0)
    }

    /// The later of two timestamps.
    #[must_use]
    pub fn max(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// The earlier of two timestamps.
    #[must_use]
    pub fn min(self, other: SimTime) -> SimTime {
        if self <= other {
            self
        } else {
            other
        }
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0.0);

    /// Creates a duration of `secs` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is NaN or negative.
    #[must_use]
    pub fn from_secs(secs: f64) -> Self {
        assert!(!secs.is_nan(), "SimDuration must not be NaN");
        assert!(secs >= 0.0, "SimDuration must not be negative: {secs}");
        SimDuration(secs + 0.0)
    }

    /// Creates a duration of `minutes` minutes.
    ///
    /// # Panics
    ///
    /// Panics if `minutes` is NaN or negative.
    #[must_use]
    pub fn from_minutes(minutes: f64) -> Self {
        Self::from_secs(minutes * 60.0)
    }

    /// Creates a duration of `hours` hours.
    ///
    /// # Panics
    ///
    /// Panics if `hours` is NaN or negative.
    #[must_use]
    pub fn from_hours(hours: f64) -> Self {
        Self::from_secs(hours * 3600.0)
    }

    /// The duration in seconds.
    #[must_use]
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// The duration in minutes.
    #[must_use]
    pub fn as_minutes(self) -> f64 {
        self.0 / 60.0
    }

    /// The duration in hours.
    #[must_use]
    pub fn as_hours(self) -> f64 {
        self.0 / 3600.0
    }

    /// Whether the duration is finite.
    #[must_use]
    pub fn is_finite(self) -> bool {
        self.0.is_finite()
    }
}

impl Default for SimTime {
    fn default() -> Self {
        SimTime::ZERO
    }
}

impl Default for SimDuration {
    fn default() -> Self {
        SimDuration::ZERO
    }
}

impl Eq for SimTime {}
impl Eq for SimDuration {}

// Non-negative, NaN-free and never −0.0 by construction, so the bit
// patterns order as the values do (see the module docs).
#[allow(clippy::derive_ord_xor_partial_ord)]
impl Ord for SimTime {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.to_bits().cmp(&other.0.to_bits())
    }
}

impl PartialOrd for SimTime {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

#[allow(clippy::derive_ord_xor_partial_ord)]
impl Ord for SimDuration {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.to_bits().cmp(&other.0.to_bits())
    }
}

impl PartialOrd for SimDuration {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.duration_since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration::from_secs(self.0 - rhs.0)
    }
}

impl Mul<f64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: f64) -> SimDuration {
        SimDuration::from_secs(self.0 * rhs)
    }
}

impl Div<f64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: f64) -> SimDuration {
        SimDuration::from_secs(self.0 / rhs)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimTime({}s)", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.0)
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimDuration({}s)", self.0)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_units() {
        assert_eq!(SimTime::from_minutes(1.0).as_secs(), 60.0);
        assert_eq!(SimTime::from_secs(7200.0).as_hours(), 2.0);
        assert_eq!(SimDuration::from_hours(1.0).as_minutes(), 60.0);
        assert_eq!(SimTime::ZERO.as_secs(), 0.0);
    }

    #[test]
    fn ordering_is_total() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(2.0);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert!(SimTime::FAR_FUTURE > b);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(10.0) + SimDuration::from_secs(5.0);
        assert_eq!(t, SimTime::from_secs(15.0));
        let d = t - SimTime::from_secs(3.0);
        assert_eq!(d, SimDuration::from_secs(12.0));
        assert_eq!(
            SimDuration::from_secs(4.0) * 2.5,
            SimDuration::from_secs(10.0)
        );
        assert_eq!(
            SimDuration::from_secs(9.0) / 3.0,
            SimDuration::from_secs(3.0)
        );
    }

    #[test]
    #[should_panic(expected = "must not be NaN")]
    fn nan_time_panics() {
        let _ = SimTime::from_secs(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "must not be negative")]
    fn negative_duration_panics() {
        let _ = SimDuration::from_secs(-1.0);
    }

    #[test]
    #[should_panic(expected = "duration_since")]
    fn backwards_duration_panics() {
        let _ = SimTime::from_secs(1.0).duration_since(SimTime::from_secs(2.0));
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimTime::from_secs(1.5)), "1.500s");
        assert_eq!(
            format!("{:?}", SimDuration::from_secs(2.0)),
            "SimDuration(2s)"
        );
    }

    #[test]
    fn far_future_is_not_finite() {
        assert!(!SimTime::FAR_FUTURE.is_finite());
        assert!(SimTime::ZERO.is_finite());
    }

    #[test]
    fn negative_zero_folds_to_zero() {
        use std::cmp::Ordering;
        let t = SimTime::from_secs(-0.0);
        assert_eq!(t, SimTime::ZERO);
        assert_eq!(t.cmp(&SimTime::ZERO), Ordering::Equal);
        assert!(
            t < SimTime::from_secs(f64::from_bits(1)),
            "below the least subnormal"
        );
        assert!(t < SimTime::FAR_FUTURE);
        assert_eq!(t.as_secs().to_bits(), 0, "stored as +0.0");
        let d = SimDuration::from_secs(-0.0);
        assert_eq!(d.cmp(&SimDuration::ZERO), Ordering::Equal);
        assert_eq!(d.as_secs().to_bits(), 0, "stored as +0.0");
        assert_eq!(SimTime::ZERO + d, SimTime::ZERO);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Non-negative `f64`s of every class the order must rank: zeros of
    /// both signs, subnormals, normals from tiny to `f64::MAX`, and `+∞`.
    fn non_negative() -> impl Strategy<Value = f64> {
        prop_oneof![
            Just(0.0),
            Just(-0.0),
            Just(f64::INFINITY),
            Just(f64::MIN_POSITIVE),
            Just(f64::MAX),
            (1u64..1 << 52).prop_map(f64::from_bits),
            0.0..1e6,
            (0u64..0x7FF0_0000_0000_0000).prop_map(f64::from_bits),
        ]
    }

    proptest! {
        /// The integer order agrees with the float order on every value a
        /// constructor accepts, `FAR_FUTURE` included.
        #[test]
        fn integer_order_matches_float_order(a in non_negative(), b in non_negative()) {
            let want = a.partial_cmp(&b).expect("no NaN drawn");
            let (ta, tb) = (SimTime::from_secs(a), SimTime::from_secs(b));
            prop_assert_eq!(ta.cmp(&tb), want, "{} vs {}", a, b);
            prop_assert_eq!(ta == tb, a == b);
            let (da, db) = (SimDuration::from_secs(a), SimDuration::from_secs(b));
            prop_assert_eq!(da.cmp(&db), want, "{} vs {}", a, b);
            let beyond = f64::INFINITY.partial_cmp(&a).expect("no NaN drawn");
            prop_assert_eq!(SimTime::FAR_FUTURE.cmp(&ta), beyond);
        }
    }
}
