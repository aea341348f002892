//! Closed-loop fault-tolerance controllers.
//!
//! Every fault-tolerance knob elsewhere in the system is open-loop: the
//! replica throttle ships a hand-found Pareto knee, Young–Daly trusts a
//! *declared* MTBF, and placement learns of a flaky site only after losing
//! work to it. This module is the shared estimator/controller framework
//! that closes those loops from the failure process the engine actually
//! observes:
//!
//! * [`Ewma`] — exponentially-weighted moving averages over event-driven
//!   observations;
//! * [`InterarrivalTracker`] — per-entity failure interarrival estimation
//!   (feeds the self-tuning Young–Daly interval);
//! * [`AvailabilityTracker`] — integrated up-fraction per site (feeds the
//!   placement score);
//! * [`CapController`] — a hysteresis-guarded setpoint controller over the
//!   replica cap, driven by the observed replica cancel/complete ratio;
//! * [`CircuitBreaker`] — a closed/open/half-open state machine per site
//!   that stops dispatch into a crash storm and re-admits the site with
//!   timed probes;
//! * [`ControlPlane`] — the engine-facing bundle: it ingests the events
//!   the engine already emits (crash, recover, completion, tick) and
//!   produces [`ControlDirective`]s.
//!
//! Everything here is **deterministic and sim-time-driven**: no wall
//! clocks, no RNG. State changes only on engine events and on the
//! controller tick, which follows the same not-an-event discipline as the
//! probe sampler and digest fold (ticks fire *between* dispatched events
//! and never enter the event stream). With every loop disabled the plane
//! is never constructed and the simulation is byte-identical to the
//! uncontrolled engine — property-tested in
//! `tests/scheduler_equivalence.rs`.

use std::collections::VecDeque;
use std::fmt;

use serde::{Deserialize, Serialize};

/// Which closed loops are enabled, and the shared tick period.
///
/// `ControlConfig::none()` (the default) disables everything and is
/// byte-identical to the pre-control engine.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ControlConfig {
    /// Adaptive replica throttle: tune storage affinity's per-task replica
    /// cap from the observed cancel/complete ratio.
    pub adaptive_throttle: bool,
    /// Churn-aware placement: per-site availability scores exposed to the
    /// scheduler plus circuit breakers gating dispatch into crash storms.
    pub churn_placement: bool,
    /// Self-tuning Young–Daly: re-derive per-site checkpoint intervals
    /// from the observed failure interarrival process.
    pub adaptive_checkpoint: bool,
    /// Controller tick period in sim seconds.
    pub tick_s: f64,
}

impl Default for ControlConfig {
    fn default() -> Self {
        ControlConfig {
            adaptive_throttle: false,
            churn_placement: false,
            adaptive_checkpoint: false,
            tick_s: 60.0,
        }
    }
}

impl ControlConfig {
    /// All loops off — the open-loop engine.
    #[must_use]
    pub fn none() -> Self {
        ControlConfig::default()
    }

    /// Enables the adaptive replica throttle loop.
    #[must_use]
    pub fn with_adaptive_throttle(mut self) -> Self {
        self.adaptive_throttle = true;
        self
    }

    /// Enables churn-aware placement (availability scores + breakers).
    #[must_use]
    pub fn with_churn_placement(mut self) -> Self {
        self.churn_placement = true;
        self
    }

    /// Enables the self-tuning Young–Daly checkpoint loop.
    #[must_use]
    pub fn with_adaptive_checkpoint(mut self) -> Self {
        self.adaptive_checkpoint = true;
        self
    }

    /// Sets the controller tick period in sim seconds.
    ///
    /// # Panics
    ///
    /// Panics unless `tick_s` is finite and positive.
    #[must_use]
    pub fn with_tick_s(mut self, tick_s: f64) -> Self {
        assert!(
            tick_s > 0.0 && tick_s.is_finite(),
            "control tick must be finite and positive"
        );
        self.tick_s = tick_s;
        self
    }

    /// Whether every loop is disabled (the plane need not exist).
    #[must_use]
    pub fn is_inert(&self) -> bool {
        !(self.adaptive_throttle || self.churn_placement || self.adaptive_checkpoint)
    }

    /// Human-readable summary (`"none"` when inert).
    #[must_use]
    pub fn summary(&self) -> String {
        if self.is_inert() {
            return "none".to_string();
        }
        let mut loops = Vec::new();
        if self.adaptive_throttle {
            loops.push("throttle");
        }
        if self.churn_placement {
            loops.push("placement");
        }
        if self.adaptive_checkpoint {
            loops.push("checkpoint");
        }
        format!("{} tick={}s", loops.join("+"), self.tick_s)
    }
}

/// An exponentially-weighted moving average over irregular observations.
#[derive(Debug, Clone, Copy)]
pub struct Ewma {
    alpha: f64,
    value: Option<f64>,
}

impl Ewma {
    /// A fresh estimator; `alpha` is the weight of each new observation.
    ///
    /// # Panics
    ///
    /// Panics unless `alpha` is in `(0, 1]`.
    #[must_use]
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "EWMA alpha must be in (0, 1]");
        Ewma { alpha, value: None }
    }

    /// Folds one observation in. The first observation seeds the average.
    pub fn observe(&mut self, x: f64) {
        self.value = Some(match self.value {
            None => x,
            Some(v) => v + self.alpha * (x - v),
        });
    }

    /// The current estimate, if anything has been observed.
    #[must_use]
    pub fn value(&self) -> Option<f64> {
        self.value
    }
}

/// Estimates the mean gap between successive events (failure
/// interarrival) for one entity via an EWMA over observed gaps.
#[derive(Debug, Clone)]
pub struct InterarrivalTracker {
    last_event_s: Option<f64>,
    gap: Ewma,
    gaps_observed: u64,
}

impl InterarrivalTracker {
    /// A fresh tracker with the given EWMA weight.
    #[must_use]
    pub fn new(alpha: f64) -> Self {
        InterarrivalTracker {
            last_event_s: None,
            gap: Ewma::new(alpha),
            gaps_observed: 0,
        }
    }

    /// Records an event at sim time `t_s`; the first event only anchors
    /// the clock, every later one contributes a gap.
    pub fn observe_event(&mut self, t_s: f64) {
        if let Some(last) = self.last_event_s {
            let gap = (t_s - last).max(0.0);
            self.gap.observe(gap);
            self.gaps_observed += 1;
        }
        self.last_event_s = Some(t_s);
    }

    /// EWMA of the interarrival gap, once at least one gap exists.
    #[must_use]
    pub fn mean_gap_s(&self) -> Option<f64> {
        self.gap.value()
    }

    /// How many gaps have been folded in.
    #[must_use]
    pub fn gaps_observed(&self) -> u64 {
        self.gaps_observed
    }
}

/// Integrates a site's up-worker fraction over sim time.
///
/// The engine reports every worker down/up transition; the tracker keeps
/// the exact integral of `up_workers / total_workers`, so
/// [`availability`](AvailabilityTracker::availability) is the fraction of
/// worker-seconds the site was up through time `t` — always in `[0, 1]`,
/// and exactly tiling with the downtime the metrics layer accounts.
#[derive(Debug, Clone)]
pub struct AvailabilityTracker {
    total: u32,
    up: u32,
    last_t_s: f64,
    up_worker_seconds: f64,
}

impl AvailabilityTracker {
    /// A site with `total` workers, all initially up.
    #[must_use]
    pub fn new(total: u32) -> Self {
        AvailabilityTracker {
            total,
            up: total,
            last_t_s: 0.0,
            up_worker_seconds: 0.0,
        }
    }

    fn advance(&mut self, t_s: f64) {
        let dt = (t_s - self.last_t_s).max(0.0);
        self.up_worker_seconds += dt * f64::from(self.up);
        self.last_t_s = t_s;
    }

    /// A worker at this site went down at sim time `t_s`.
    pub fn on_worker_down(&mut self, t_s: f64) {
        self.advance(t_s);
        self.up = self.up.saturating_sub(1);
    }

    /// A worker at this site came back up at sim time `t_s`.
    pub fn on_worker_up(&mut self, t_s: f64) {
        self.advance(t_s);
        self.up = (self.up + 1).min(self.total);
    }

    /// Fraction of worker-seconds up through `t_s`, clamped to `[0, 1]`
    /// (`1.0` before any time has elapsed).
    #[must_use]
    pub fn availability(&self, t_s: f64) -> f64 {
        let horizon = t_s.max(self.last_t_s);
        if horizon <= 0.0 || self.total == 0 {
            return 1.0;
        }
        let tail = (horizon - self.last_t_s) * f64::from(self.up);
        ((self.up_worker_seconds + tail) / (horizon * f64::from(self.total))).clamp(0.0, 1.0)
    }
}

/// A hysteresis-guarded setpoint controller over the replica cap.
///
/// Input: the EWMA of the per-tick replica *waste ratio*
/// `cancelled / (cancelled + completed)`. When the ratio sits above the
/// high-water mark most replicas are losing the race (speculation is
/// waste) and the cap ratchets down; below the low-water mark replicas
/// are mostly winning (speculation pays, e.g. under churn) and the cap
/// ratchets up. The dead band between the marks plus a cooldown of
/// several ticks between moves is the hysteresis that keeps the
/// controller from chattering around the setpoint.
///
/// Raises are additionally gated by *patience with exponential backoff*:
/// a raise needs `raise_patience` consecutive informative low-waste
/// windows, and a raise that promptly gets burned (the next move is a
/// lower) doubles the patience, up to [`Self::MAX_RAISE_PATIENCE`]. In a
/// steady high-contention regime the controller therefore rests at the
/// floor and probes upward only occasionally, instead of oscillating —
/// while consecutive successful raises reset the patience so genuinely
/// paying speculation (e.g. under churn) is re-trusted quickly. A fresh
/// raise is judged on its raw per-window waste for a few ticks
/// ([`Self::PROBE_JUDGE_TICKS`]) so a burned probe reverts after one
/// window instead of waiting for the smoothed estimate to catch up.
#[derive(Debug, Clone)]
pub struct CapController {
    cap: u32,
    min_cap: u32,
    max_cap: u32,
    high_water: f64,
    low_water: f64,
    cooldown_ticks: u32,
    ticks_since_change: u32,
    raise_patience: u32,
    low_streak: u32,
    last_move_was_raise: bool,
    waste: Ewma,
}

impl CapController {
    /// Starting cap for the adaptive throttle when the user set none.
    /// The floor: speculation must *prove* it pays (a patience cycle of
    /// clean windows) before any replica is admitted. Starting higher
    /// burns real compute in the cold-start dispatch burst, before the
    /// first window has even resolved.
    pub const DEFAULT_START_CAP: u32 = 1;
    /// Waste ratio above which the cap ratchets down.
    pub const HIGH_WATER: f64 = 0.40;
    /// Waste ratio below which the cap ratchets up.
    pub const LOW_WATER: f64 = 0.15;
    /// Ticks that must pass between cap moves.
    pub const COOLDOWN_TICKS: u32 = 2;
    /// Consecutive informative low-waste windows a raise needs initially.
    pub const BASE_RAISE_PATIENCE: u32 = 8;
    /// Backoff ceiling for the raise patience (burned probes double it).
    pub const MAX_RAISE_PATIENCE: u32 = 256;
    /// Ticks after a raise during which the probe is judged on its raw
    /// per-window waste rather than the smoothed estimate.
    pub const PROBE_JUDGE_TICKS: u32 = 4;

    /// A controller starting at `start_cap`, bounded to `[min, max]`.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= min <= start <= max`.
    #[must_use]
    pub fn new(start_cap: u32, min_cap: u32, max_cap: u32) -> Self {
        assert!(
            min_cap >= 1 && min_cap <= start_cap && start_cap <= max_cap,
            "cap controller needs 1 <= min <= start <= max"
        );
        CapController {
            cap: start_cap,
            min_cap,
            max_cap,
            high_water: Self::HIGH_WATER,
            low_water: Self::LOW_WATER,
            cooldown_ticks: Self::COOLDOWN_TICKS,
            ticks_since_change: 0,
            raise_patience: Self::BASE_RAISE_PATIENCE,
            low_streak: 0,
            last_move_was_raise: false,
            waste: Ewma::new(0.4),
        }
    }

    /// The current cap.
    #[must_use]
    pub fn cap(&self) -> u32 {
        self.cap
    }

    /// The current waste-ratio estimate, once observed.
    #[must_use]
    pub fn waste_ratio(&self) -> Option<f64> {
        self.waste.value()
    }

    /// One controller tick: fold in the replicas cancelled/completed since
    /// the previous tick, apply the hysteresis rule, and return the new
    /// cap iff it moved.
    pub fn tick(&mut self, delta_cancelled: u64, delta_completed: u64) -> Option<u32> {
        let resolved = delta_cancelled + delta_completed;
        let informative = resolved > 0;
        #[allow(clippy::cast_precision_loss)]
        let raw = if informative {
            delta_cancelled as f64 / resolved as f64
        } else {
            0.0
        };
        if informative {
            // Observations only when replicas actually resolved: an idle
            // tick carries no information about speculation quality.
            self.waste.observe(raw);
        }
        self.ticks_since_change = self.ticks_since_change.saturating_add(1);
        let ratio = self.waste.value()?;
        if ratio >= self.low_water {
            self.low_streak = 0;
        } else if informative {
            self.low_streak = self.low_streak.saturating_add(1);
        }
        // A fresh raise is a *probe*, and a probe is judged on its own
        // windows, not the smoothed estimate: one raw window over the
        // high water reverts it immediately (skipping the cooldown),
        // bounding the cost of an exploratory raise to a single window
        // instead of the several it takes the EWMA to catch up.
        let probe_failed = self.last_move_was_raise
            && self.ticks_since_change <= Self::PROBE_JUDGE_TICKS
            && informative
            && raw > self.high_water;
        if !probe_failed && self.ticks_since_change < self.cooldown_ticks {
            return None;
        }
        let next = if probe_failed || ratio > self.high_water {
            self.cap.saturating_sub(1).max(self.min_cap)
        } else if ratio < self.low_water && self.low_streak >= self.raise_patience {
            (self.cap + 1).min(self.max_cap)
        } else {
            self.cap
        };
        if next == self.cap {
            return None;
        }
        if next < self.cap {
            if self.last_move_was_raise {
                // The probe got burned: back off before probing again.
                self.raise_patience = (self.raise_patience * 2).min(Self::MAX_RAISE_PATIENCE);
            }
            self.last_move_was_raise = false;
        } else {
            if self.last_move_was_raise {
                // Two raises in a row: speculation is paying — re-trust.
                self.raise_patience = Self::BASE_RAISE_PATIENCE;
            }
            self.last_move_was_raise = true;
        }
        self.cap = next;
        self.ticks_since_change = 0;
        self.low_streak = 0;
        Some(next)
    }
}

/// Circuit-breaker states, in the classic middleware sense.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: dispatch flows normally.
    Closed,
    /// Tripped: no dispatch to this site until the cooldown elapses.
    Open,
    /// Cooling down: dispatches are admitted again; a success closes the
    /// breaker, a failure re-opens it.
    HalfOpen,
}

/// A per-site circuit breaker over worker-crash events.
///
/// Trips [`Open`](BreakerState::Open) when `trip_threshold` crashes land
/// within a sliding `window_s`; transitions to
/// [`HalfOpen`](BreakerState::HalfOpen) on the first controller tick after
/// `cooldown_s`, at which point the engine re-admits the site's parked
/// workers. A completed task at the site closes the breaker; another
/// crash re-opens it for a fresh cooldown.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    state: BreakerState,
    window_s: f64,
    trip_threshold: u32,
    cooldown_s: f64,
    recent_failures_s: VecDeque<f64>,
    open_until_s: f64,
    half_open_since_s: f64,
}

impl CircuitBreaker {
    /// Crashes within the window needed to trip.
    pub const TRIP_THRESHOLD: u32 = 3;
    /// Sliding window over crash events, sim seconds.
    pub const WINDOW_S: f64 = 900.0;
    /// Open-state cooldown before a half-open probe, sim seconds.
    pub const COOLDOWN_S: f64 = 600.0;
    /// Half-open probation: a crash-free half-open breaker re-closes
    /// after this long. Without the bound, a site whose tasks run for
    /// hours would sit half-open (hair-trigger: one crash re-opens it)
    /// until its next completion, amplifying ordinary background churn
    /// into repeated full-cooldown parks.
    pub const PROBATION_S: f64 = 900.0;

    /// A closed breaker with the default thresholds.
    #[must_use]
    pub fn new() -> Self {
        CircuitBreaker {
            state: BreakerState::Closed,
            window_s: Self::WINDOW_S,
            trip_threshold: Self::TRIP_THRESHOLD,
            cooldown_s: Self::COOLDOWN_S,
            recent_failures_s: VecDeque::new(),
            open_until_s: 0.0,
            half_open_since_s: 0.0,
        }
    }

    /// The current state.
    #[must_use]
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Whether dispatch to the site is currently blocked.
    #[must_use]
    pub fn is_open(&self) -> bool {
        self.state == BreakerState::Open
    }

    /// A worker at the site crashed at `t_s`. Returns `true` iff this
    /// crash tripped (or re-tripped) the breaker open.
    pub fn on_failure(&mut self, t_s: f64) -> bool {
        match self.state {
            BreakerState::Open => false,
            BreakerState::HalfOpen => {
                // The probe failed: straight back to open, fresh cooldown.
                self.state = BreakerState::Open;
                self.open_until_s = t_s + self.cooldown_s;
                self.recent_failures_s.clear();
                true
            }
            BreakerState::Closed => {
                self.recent_failures_s.push_back(t_s);
                while self
                    .recent_failures_s
                    .front()
                    .is_some_and(|&f| f < t_s - self.window_s)
                {
                    self.recent_failures_s.pop_front();
                }
                if self.recent_failures_s.len() >= self.trip_threshold as usize {
                    self.state = BreakerState::Open;
                    self.open_until_s = t_s + self.cooldown_s;
                    self.recent_failures_s.clear();
                    true
                } else {
                    false
                }
            }
        }
    }

    /// A task completed at the site at `t_s`. Returns `true` iff this
    /// success closed a half-open breaker.
    pub fn on_success(&mut self, _t_s: f64) -> bool {
        if self.state == BreakerState::HalfOpen {
            self.state = BreakerState::Closed;
            self.recent_failures_s.clear();
            true
        } else {
            false
        }
    }

    /// Controller tick at `t_s`. Returns `true` iff the breaker moved
    /// from open to half-open (cooldown elapsed — time to probe). A
    /// half-open breaker that has stayed crash-free for
    /// [`Self::PROBATION_S`] re-closes silently on the same tick path.
    pub fn tick(&mut self, t_s: f64) -> bool {
        match self.state {
            BreakerState::Open if t_s >= self.open_until_s => {
                self.state = BreakerState::HalfOpen;
                self.half_open_since_s = t_s;
                true
            }
            BreakerState::HalfOpen if t_s >= self.half_open_since_s + Self::PROBATION_S => {
                self.state = BreakerState::Closed;
                self.recent_failures_s.clear();
                false
            }
            _ => false,
        }
    }

    /// The placement-score multiplier for this breaker state.
    #[must_use]
    pub fn score_factor(&self) -> f64 {
        match self.state {
            BreakerState::Closed => 1.0,
            BreakerState::HalfOpen => 0.5,
            BreakerState::Open => 0.0,
        }
    }
}

impl Default for CircuitBreaker {
    fn default() -> Self {
        CircuitBreaker::new()
    }
}

/// A directive from the control plane to the scheduler, delivered through
/// [`Scheduler::on_control`](crate::scheduler::Scheduler::on_control).
#[derive(Debug, Clone, PartialEq)]
pub enum ControlDirective {
    /// The adaptive throttle moved the per-task replica cap.
    SetReplicaCap(u32),
    /// Fresh per-site placement scores in `[0, 1]` (availability ×
    /// breaker factor), indexed by site. A multiplier of 1.0 means
    /// "place freely"; 0.0 means the site is in a crash storm.
    SiteScores(Vec<f64>),
}

/// What a controller tick decided; the engine actuates each field.
#[derive(Debug, Clone, Default)]
pub struct TickOutcome {
    /// New replica cap, iff the throttle controller moved it.
    pub new_cap: Option<u32>,
    /// Whether the new cap is higher than the old one (re-admits parked
    /// capacity; the engine should wake parked workers).
    pub cap_raised: bool,
    /// Sites whose breaker went open → half-open this tick (wake a probe).
    pub half_opened: Vec<usize>,
    /// Fresh placement scores (present iff the placement loop is on).
    pub scores: Option<Vec<f64>>,
}

/// The engine-facing controller bundle: per-site estimators plus the
/// three loop controllers, driven by engine events and the shared tick.
pub struct ControlPlane {
    config: ControlConfig,
    workers_per_site: u32,
    cap_controller: Option<CapController>,
    prev_cancelled: u64,
    prev_completed: u64,
    availability: Vec<AvailabilityTracker>,
    breakers: Vec<CircuitBreaker>,
    site_scores: Vec<f64>,
    site_interarrival: Vec<InterarrivalTracker>,
    global_interarrival: InterarrivalTracker,
    estimator_updates: u64,
}

/// Minimum observed gaps before a site's own interarrival estimate is
/// trusted over the global one.
const SITE_MIN_GAPS: u64 = 3;
/// Minimum observed gaps before the global interarrival estimate is used.
const GLOBAL_MIN_GAPS: u64 = 2;
/// EWMA weight for interarrival gaps.
const GAP_ALPHA: f64 = 0.3;

impl ControlPlane {
    /// Builds the plane for a grid of `sites` × `workers_per_site`.
    ///
    /// `start_cap` seeds the throttle controller (the user's configured
    /// cap if they set one, [`CapController::DEFAULT_START_CAP`]
    /// otherwise); it is only consulted when the throttle loop is on.
    ///
    /// # Panics
    ///
    /// Panics if `config` is inert — the engine must not build a plane
    /// that can never act (the off state must stay byte-identical).
    #[must_use]
    pub fn new(config: ControlConfig, sites: usize, workers_per_site: u32, start_cap: u32) -> Self {
        assert!(
            !config.is_inert(),
            "control plane built with every loop disabled"
        );
        let cap_controller = config.adaptive_throttle.then(|| {
            let max = start_cap.max(CapController::DEFAULT_START_CAP * 2);
            CapController::new(start_cap, 1, max)
        });
        ControlPlane {
            config,
            workers_per_site,
            cap_controller,
            prev_cancelled: 0,
            prev_completed: 0,
            availability: (0..sites)
                .map(|_| AvailabilityTracker::new(workers_per_site))
                .collect(),
            breakers: (0..sites).map(|_| CircuitBreaker::new()).collect(),
            site_scores: vec![1.0; sites],
            site_interarrival: (0..sites)
                .map(|_| InterarrivalTracker::new(GAP_ALPHA))
                .collect(),
            global_interarrival: InterarrivalTracker::new(GAP_ALPHA),
            estimator_updates: 0,
        }
    }

    /// The configured loops.
    #[must_use]
    pub fn config(&self) -> &ControlConfig {
        &self.config
    }

    /// Whether the placement loop (scores + breakers) is on.
    #[must_use]
    pub fn placement_enabled(&self) -> bool {
        self.config.churn_placement
    }

    /// Whether the adaptive-checkpoint loop is on.
    #[must_use]
    pub fn checkpoint_enabled(&self) -> bool {
        self.config.adaptive_checkpoint
    }

    /// Total estimator observations folded in so far.
    #[must_use]
    pub fn estimator_updates(&self) -> u64 {
        self.estimator_updates
    }

    /// The current placement-score vector (last tick's, before that all
    /// ones). Scores are `availability × breaker_factor ∈ [0, 1]`.
    #[must_use]
    pub fn site_scores(&self) -> &[f64] {
        &self.site_scores
    }

    /// The breaker state for `site`.
    #[must_use]
    pub fn breaker_state(&self, site: usize) -> BreakerState {
        self.breakers[site].state()
    }

    /// Whether dispatch at `site` is blocked by an open breaker.
    /// Only gates when the placement loop is on.
    #[must_use]
    pub fn dispatch_blocked(&self, site: usize) -> bool {
        self.config.churn_placement && self.breakers[site].is_open()
    }

    /// A worker at `site` crashed at sim time `t_s`. Returns `true` iff
    /// the site's breaker tripped open on this crash.
    pub fn on_worker_crash(&mut self, site: usize, t_s: f64) -> bool {
        self.estimator_updates += 1;
        self.availability[site].on_worker_down(t_s);
        self.site_interarrival[site].observe_event(t_s);
        self.global_interarrival.observe_event(t_s);
        if self.config.churn_placement {
            self.breakers[site].on_failure(t_s)
        } else {
            false
        }
    }

    /// A worker at `site` recovered at sim time `t_s`.
    pub fn on_worker_recover(&mut self, site: usize, t_s: f64) {
        self.estimator_updates += 1;
        self.availability[site].on_worker_up(t_s);
    }

    /// A task completed at `site` at sim time `t_s`. Returns `true` iff
    /// this success closed a half-open breaker (the engine should wake
    /// the site's parked workers).
    pub fn on_site_success(&mut self, site: usize, t_s: f64) -> bool {
        if self.config.churn_placement {
            self.breakers[site].on_success(t_s)
        } else {
            false
        }
    }

    /// Estimated per-worker MTBF at `site` in sim seconds, from the
    /// observed crash interarrival process. A site-local estimate needs
    /// `SITE_MIN_GAPS` (3) gaps; before that the global process (scaled to
    /// one worker) stands in; before *that*, `None` — the consumer keeps
    /// its bootstrap behaviour (no checkpoints until failures are seen).
    #[must_use]
    pub fn site_worker_mtbf_s(&self, site: usize) -> Option<f64> {
        let local = &self.site_interarrival[site];
        if local.gaps_observed() >= SITE_MIN_GAPS {
            return local
                .mean_gap_s()
                .map(|g| g * f64::from(self.workers_per_site));
        }
        if self.global_interarrival.gaps_observed() >= GLOBAL_MIN_GAPS {
            let total_workers = self.workers_per_site as usize * self.availability.len();
            #[allow(clippy::cast_precision_loss)]
            return self
                .global_interarrival
                .mean_gap_s()
                .map(|g| g * total_workers as f64);
        }
        None
    }

    /// The throttle controller's current waste-ratio estimate.
    #[must_use]
    pub fn waste_ratio(&self) -> Option<f64> {
        self.cap_controller
            .as_ref()
            .and_then(CapController::waste_ratio)
    }

    /// One controller tick at sim time `t_s`. `replicas_cancelled` /
    /// `replicas_completed` are the engine's *cumulative* counters (the
    /// plane differences them itself).
    pub fn tick(
        &mut self,
        t_s: f64,
        replicas_cancelled: u64,
        replicas_completed: u64,
    ) -> TickOutcome {
        let mut out = TickOutcome::default();
        if let Some(ctl) = self.cap_controller.as_mut() {
            let old_cap = ctl.cap();
            let d_cancel = replicas_cancelled.saturating_sub(self.prev_cancelled);
            let d_complete = replicas_completed.saturating_sub(self.prev_completed);
            self.prev_cancelled = replicas_cancelled;
            self.prev_completed = replicas_completed;
            if let Some(new_cap) = ctl.tick(d_cancel, d_complete) {
                out.new_cap = Some(new_cap);
                out.cap_raised = new_cap > old_cap;
            }
        }
        if self.config.churn_placement {
            for (site, breaker) in self.breakers.iter_mut().enumerate() {
                if breaker.tick(t_s) {
                    out.half_opened.push(site);
                }
            }
            for (site, tracker) in self.availability.iter().enumerate() {
                self.site_scores[site] =
                    tracker.availability(t_s) * self.breakers[site].score_factor();
            }
            out.scores = Some(self.site_scores.clone());
        }
        out
    }
}

impl fmt::Debug for ControlPlane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ControlPlane")
            .field("config", &self.config)
            .field("estimator_updates", &self.estimator_updates)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_summary_and_inertness() {
        assert!(ControlConfig::none().is_inert());
        assert_eq!(ControlConfig::none().summary(), "none");
        let c = ControlConfig::none()
            .with_adaptive_throttle()
            .with_churn_placement()
            .with_adaptive_checkpoint()
            .with_tick_s(30.0);
        assert!(!c.is_inert());
        assert_eq!(c.summary(), "throttle+placement+checkpoint tick=30s");
        assert_eq!(
            ControlConfig::none().with_churn_placement().summary(),
            "placement tick=60s"
        );
    }

    #[test]
    #[should_panic(expected = "control tick must be finite and positive")]
    fn zero_tick_panics() {
        let _ = ControlConfig::none().with_tick_s(0.0);
    }

    #[test]
    fn ewma_seeds_and_converges() {
        let mut e = Ewma::new(0.5);
        assert_eq!(e.value(), None);
        e.observe(10.0);
        assert_eq!(e.value(), Some(10.0));
        e.observe(0.0);
        assert_eq!(e.value(), Some(5.0));
        for _ in 0..64 {
            e.observe(2.0);
        }
        assert!((e.value().unwrap() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn interarrival_needs_two_events() {
        let mut t = InterarrivalTracker::new(0.5);
        t.observe_event(100.0);
        assert_eq!(t.mean_gap_s(), None);
        t.observe_event(160.0);
        assert_eq!(t.mean_gap_s(), Some(60.0));
        assert_eq!(t.gaps_observed(), 1);
        t.observe_event(220.0);
        assert_eq!(t.mean_gap_s(), Some(60.0));
    }

    #[test]
    fn availability_integrates_and_stays_in_unit_interval() {
        let mut a = AvailabilityTracker::new(4);
        assert_eq!(a.availability(0.0), 1.0);
        assert_eq!(a.availability(100.0), 1.0);
        a.on_worker_down(100.0); // 3/4 up from t=100
                                 // Exact check: 100s fully up (400 worker-s) + 100s at 3 up (300) over 4*200.
        assert!((a.availability(200.0) - 700.0 / 800.0).abs() < 1e-9);
        a.on_worker_down(200.0);
        a.on_worker_down(200.0);
        a.on_worker_down(200.0); // all down
        assert!((a.availability(400.0) - 700.0 / 1600.0).abs() < 1e-9);
        a.on_worker_up(400.0);
        for t in [0.0, 1.0, 500.0, 1e6] {
            let v = a.availability(t);
            assert!((0.0..=1.0).contains(&v), "availability {v} out of range");
        }
    }

    #[test]
    fn cap_controller_ratchets_down_under_waste_and_up_when_paying() {
        let mut c = CapController::new(4, 1, 8);
        assert_eq!(c.cap(), 4);
        // Heavy waste: ratio 0.9 each tick — should ratchet to the floor.
        let mut moves = Vec::new();
        for _ in 0..12 {
            if let Some(cap) = c.tick(9, 1) {
                moves.push(cap);
            }
        }
        assert_eq!(c.cap(), 1);
        assert_eq!(moves, vec![3, 2, 1]);
        // Speculation paying off: ratio 0.0 — ratchets back up, capped.
        // Each raise waits out the patience (consecutive clean raises
        // keep it at the base), so the climb takes several windows.
        for _ in 0..120 {
            c.tick(0, 10);
        }
        assert_eq!(c.cap(), 8);
    }

    #[test]
    fn cap_controller_burned_probe_reverts_in_one_window_and_backs_off() {
        let mut c = CapController::new(1, 1, 8);
        // Clean low-waste windows until the controller probes upward.
        let mut ticks_to_first_raise = 0;
        while c.cap() == 1 {
            c.tick(0, 10);
            ticks_to_first_raise += 1;
            assert!(ticks_to_first_raise < 50, "controller never probed");
        }
        assert_eq!(c.cap(), 2);
        // The probe burns: one raw window over the high water reverts it
        // immediately, without waiting out the cooldown or the EWMA.
        assert_eq!(c.tick(9, 1), Some(1));
        assert_eq!(c.cap(), 1);
        // Backoff doubled the patience: the next probe takes longer.
        let mut ticks_to_second_raise = 0;
        while c.cap() == 1 {
            c.tick(0, 10);
            ticks_to_second_raise += 1;
            assert!(ticks_to_second_raise < 200, "controller never re-probed");
        }
        assert!(
            ticks_to_second_raise > ticks_to_first_raise,
            "burned probe must back off: {ticks_to_second_raise} <= {ticks_to_first_raise}"
        );
    }

    #[test]
    fn cap_controller_dead_band_holds_and_idle_ticks_are_silent() {
        let mut c = CapController::new(2, 1, 8);
        // Ratio 0.25 sits inside the dead band: no movement, ever.
        for _ in 0..20 {
            assert_eq!(c.tick(1, 3), None);
        }
        assert_eq!(c.cap(), 2);
        // Idle ticks (nothing resolved) never move the cap either.
        let mut c = CapController::new(4, 1, 8);
        for _ in 0..20 {
            assert_eq!(c.tick(0, 0), None);
        }
        assert_eq!(c.cap(), 4);
    }

    #[test]
    fn breaker_trips_probes_and_recloses() {
        let mut b = CircuitBreaker::new();
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(!b.on_failure(100.0));
        assert!(!b.on_failure(110.0));
        assert!(b.on_failure(120.0)); // third within the window: trip
        assert_eq!(b.state(), BreakerState::Open);
        assert!(b.is_open());
        // Cooldown not yet elapsed.
        assert!(!b.tick(120.0 + CircuitBreaker::COOLDOWN_S - 1.0));
        assert!(b.tick(120.0 + CircuitBreaker::COOLDOWN_S));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(!b.is_open()); // probes admitted
                               // Probe crashes: straight back to open.
        assert!(b.on_failure(800.0));
        assert_eq!(b.state(), BreakerState::Open);
        assert!(b.tick(800.0 + CircuitBreaker::COOLDOWN_S));
        // Probe succeeds: closed, window reset.
        assert!(b.on_success(1500.0));
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(!b.on_failure(1501.0));
        assert!(!b.on_failure(1502.0));
    }

    #[test]
    fn breaker_probation_recloses_quiet_half_open() {
        let mut b = CircuitBreaker::new();
        assert!(!b.on_failure(100.0));
        assert!(!b.on_failure(110.0));
        assert!(b.on_failure(120.0));
        let half_open_at = 120.0 + CircuitBreaker::COOLDOWN_S;
        assert!(b.tick(half_open_at));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // Still half-open just before probation elapses.
        assert!(!b.tick(half_open_at + CircuitBreaker::PROBATION_S - 1.0));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // A quiet probation re-closes silently (no wake signal) and
        // resets the crash window.
        assert!(!b.tick(half_open_at + CircuitBreaker::PROBATION_S));
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(!b.on_failure(half_open_at + CircuitBreaker::PROBATION_S + 1.0));
        assert!(!b.on_failure(half_open_at + CircuitBreaker::PROBATION_S + 2.0));
    }

    #[test]
    fn breaker_window_slides() {
        let mut b = CircuitBreaker::new();
        assert!(!b.on_failure(0.0));
        assert!(!b.on_failure(1.0));
        // The first two fall out of the window: no trip.
        assert!(!b.on_failure(1.0 + CircuitBreaker::WINDOW_S + 1.0));
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn plane_scores_and_breaker_gating() {
        let cfg = ControlConfig::none().with_churn_placement();
        let mut plane = ControlPlane::new(cfg, 2, 4, CapController::DEFAULT_START_CAP);
        assert_eq!(plane.site_scores(), &[1.0, 1.0]);
        assert!(!plane.dispatch_blocked(0));
        // Three rapid crashes at site 0 trip its breaker.
        assert!(!plane.on_worker_crash(0, 100.0));
        assert!(!plane.on_worker_crash(0, 101.0));
        assert!(plane.on_worker_crash(0, 102.0));
        assert!(plane.dispatch_blocked(0));
        assert!(!plane.dispatch_blocked(1));
        let out = plane.tick(200.0, 0, 0);
        let scores = out.scores.unwrap();
        assert_eq!(scores[0], 0.0, "open breaker zeroes the score");
        assert!(scores[1] > 0.99);
        // Cooldown elapses: half-open, probe wake requested.
        let out = plane.tick(102.0 + CircuitBreaker::COOLDOWN_S, 0, 0);
        assert_eq!(out.half_opened, vec![0]);
        assert!(!plane.dispatch_blocked(0));
        // Success closes it.
        assert!(plane.on_site_success(0, 900.0));
        assert_eq!(plane.breaker_state(0), BreakerState::Closed);
    }

    #[test]
    fn plane_mtbf_estimate_falls_back_global_then_site() {
        let cfg = ControlConfig::none().with_adaptive_checkpoint();
        let mut plane = ControlPlane::new(cfg, 2, 4, CapController::DEFAULT_START_CAP);
        assert_eq!(plane.site_worker_mtbf_s(0), None);
        // Two crashes at site 1 → one global gap: still below GLOBAL_MIN_GAPS.
        plane.on_worker_crash(1, 100.0);
        plane.on_worker_crash(1, 200.0);
        assert_eq!(plane.site_worker_mtbf_s(0), None);
        // A third crash gives two global gaps: global fallback kicks in
        // for site 0 (gap EWMA × total workers).
        plane.on_worker_crash(1, 300.0);
        let est = plane.site_worker_mtbf_s(0).unwrap();
        assert!((est - 100.0 * 8.0).abs() < 1e-9);
        // Site 1 accumulates SITE_MIN_GAPS local gaps → local estimate
        // (gap × workers_per_site).
        plane.on_worker_crash(1, 400.0);
        let est = plane.site_worker_mtbf_s(1).unwrap();
        assert!((est - 100.0 * 4.0).abs() < 1e-9);
    }

    #[test]
    fn plane_throttle_loop_differences_cumulative_counters() {
        let cfg = ControlConfig::none().with_adaptive_throttle();
        let mut plane = ControlPlane::new(cfg, 1, 4, 4);
        // Cumulative counters grow; the plane must difference them.
        let mut caps = Vec::new();
        let mut cancelled = 0;
        let mut completed = 0;
        for _ in 0..10 {
            cancelled += 90;
            completed += 10;
            let out = plane.tick(0.0, cancelled, completed);
            if let Some(c) = out.new_cap {
                assert!(!out.cap_raised);
                caps.push(c);
            }
        }
        assert_eq!(caps, vec![3, 2, 1]);
        assert!(plane.waste_ratio().unwrap() > 0.8);
    }

    #[test]
    #[should_panic(expected = "every loop disabled")]
    fn inert_plane_panics() {
        let _ = ControlPlane::new(ControlConfig::none(), 1, 1, 1);
    }
}
