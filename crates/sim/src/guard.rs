//! The transfer guard of the engine. A batch fetch's deadline is the
//! timeout multiple × its expected duration at its route's fair share,
//! which lower-bounds the max–min rate, so a flow progressing at its fair
//! share never times out. After timeout k, the retry waits
//! `backoff × 2^(k−1) × jitter`, jitter uniform in `[0.5, 1.5)` from the
//! guard's own RNG stream, so sites do not retry in lockstep. It resumes
//! from the bytes already delivered, from the other site holding the file
//! whose route breaker scores best (else the origin); the naive ablation
//! baseline re-sends the whole file from the origin. Timeout number
//! `max_retries + 1` spends the budget and the engine hands the task back.
//! Each arming and stand-down bumps the site's epoch, which the event
//! carries into the determinism digest. The breakers also weigh the
//! placement loop's site scores.
//!
//! Site `s`'s deadline and retry are the schedule's keyed timer `s` (see
//! [`Schedule::arm_timer`]): the guard arms it, re-aiming replaces it in
//! place, and the engine disarms it when the fetch ends without a timeout.
//! A stand-down leaves no dead event behind, and a deadline or retry that
//! dispatches is always the site's live one.
//!
//! The engine holds an [`XferGuard`] only when
//! [`SimConfig::transfer_timeout_mult`] is set. The guard decides; the
//! engine moves the flows, disarms the site's timer and books the ledger.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use gridsched_core::CircuitBreaker;
use gridsched_des::rng::{derive_seed, Stream};
use gridsched_des::{Schedule, SimDuration};
use gridsched_telemetry::{Counter, Histogram, Telemetry};
use gridsched_workload::FileId;

use crate::config::SimConfig;
use crate::engine::Event;

/// The guard's bookkeeping for one site's active batch fetch.
#[derive(Debug, Default)]
struct Slot {
    /// Stamp of the latest arming or stand-down.
    epoch: u64,
    /// Timed-out attempts of the current file so far.
    attempts: u32,
    /// Bytes the current attempt set out to deliver.
    remaining: f64,
    /// The file awaiting retry.
    pending_file: Option<FileId>,
    /// Failover source of the in-flight attempt (`None` = the origin).
    source: Option<usize>,
}

/// Runtime state of the transfer guard.
pub(crate) struct XferGuard {
    rng: StdRng,
    timeout_mult: f64,
    max_retries: u32,
    backoff_s: f64,
    file_size: f64,
    /// Restart-from-zero mode: no resume, no failover.
    naive: bool,
    /// Per-site breakers over the route to the file server.
    breakers: Vec<CircuitBreaker>,
    slots: Vec<Slot>,
    timeouts: Counter,
    retries: Counter,
    failovers: Counter,
    bytes_resumed: Histogram,
}

/// Seed-derivation tag of the jitter stream (workers, servers, bursts and
/// links use `0x1…`–`0x4…`).
const XFER_STREAM_TAG: u64 = 0x5_0000_0000;

impl XferGuard {
    /// The guard of a run under `config`, or `None` when no transfer
    /// timeout is configured.
    pub(crate) fn new(config: &SimConfig, telemetry: &Telemetry) -> Option<Self> {
        let timeout_mult = config.transfer_timeout_mult?;
        let base = derive_seed(config.seed, Stream::Faults);
        let mut guard = XferGuard {
            rng: StdRng::seed_from_u64(derive_seed(base ^ XFER_STREAM_TAG, Stream::Faults)),
            timeout_mult,
            max_retries: config.transfer_retries,
            backoff_s: config.retry_backoff_s,
            file_size: config.workload.file_size_bytes,
            naive: config.transfer_naive_retry,
            breakers: (0..config.sites).map(|_| CircuitBreaker::new()).collect(),
            slots: (0..config.sites).map(|_| Slot::default()).collect(),
            timeouts: Counter::default(),
            retries: Counter::default(),
            failovers: Counter::default(),
            bytes_resumed: Histogram::default(),
        };
        guard.attach_telemetry(telemetry);
        Some(guard)
    }

    /// Routes the `xfer.*` instruments to `telemetry`.
    pub(crate) fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        self.timeouts = telemetry.counter("xfer.timeouts");
        self.retries = telemetry.counter("xfer.retries");
        self.failovers = telemetry.counter("xfer.failovers");
        self.bytes_resumed = telemetry.histogram("xfer.bytes_resumed");
    }

    /// Whether an event stamped `epoch` is still `site`'s live one.
    pub(crate) fn is_live(&self, site: usize, epoch: u64) -> bool {
        self.slots[site].epoch == epoch
    }

    /// The bytes `site`'s current attempt set out to deliver.
    pub(crate) fn remaining(&self, site: usize) -> f64 {
        self.slots[site].remaining
    }

    /// Whether a retry keeps the bytes already delivered.
    pub(crate) fn resumes(&self) -> bool {
        !self.naive
    }

    /// Arms the deadline of `site`'s just-started fetch of `remaining`
    /// bytes over a route with fair share `est` and latency `latency_s`
    /// (`fresh`: a new file, with a fresh attempt budget) as `schedule`'s
    /// timer `site`.
    pub(crate) fn arm(
        &mut self,
        site: usize,
        fresh: bool,
        remaining: f64,
        est: f64,
        latency_s: f64,
        schedule: &mut Schedule<Event>,
    ) {
        // A fetch starts only after the previous one's timeout or retry
        // dispatched or was disarmed. A timer still armed here would be
        // replaced, dropping an event a cancel-and-push queue dispatches.
        debug_assert!(
            !schedule.timer_armed(site),
            "site {site}'s guard timer is still armed"
        );
        let slot = &mut self.slots[site];
        if fresh {
            slot.attempts = 0;
            slot.source = None;
            slot.pending_file = None;
        }
        let transfer_s = if est.is_finite() {
            remaining / est
        } else {
            0.0
        };
        let delay = SimDuration::from_secs(self.timeout_mult * (latency_s + transfer_s));
        slot.epoch += 1;
        slot.remaining = remaining;
        let epoch = slot.epoch;
        let at = schedule.now() + delay;
        schedule.arm_timer(site, at, Event::TransferTimeout { site, epoch });
    }

    /// Stands `site`'s slot down when its fetch ends without a timeout (the
    /// engine disarms the site's timer).
    pub(crate) fn stand_down(&mut self, site: usize) {
        let slot = &mut self.slots[site];
        slot.epoch += 1;
        slot.pending_file = None;
        slot.source = None;
    }

    /// Feeds the outcome of `site`'s attempt (`ok`: it delivered) to the
    /// route breakers of `site` and of the attempt's failover source.
    pub(crate) fn feed(&mut self, site: usize, t_s: f64, ok: bool) {
        let source = self.slots[site].source.take();
        for s in std::iter::once(site).chain(source) {
            let _ = if ok {
                self.breakers[s].on_success(t_s)
            } else {
                self.breakers[s].on_failure(t_s)
            };
        }
    }

    /// `site`'s attempt at `file` timed out at `t_s` with `delivered` bytes
    /// delivered and `left` undelivered. Arms the backoff-delayed retry as
    /// `schedule`'s timer `site`, or returns `false` when this timeout spent
    /// the budget.
    pub(crate) fn timed_out(
        &mut self,
        site: usize,
        t_s: f64,
        file: FileId,
        left: f64,
        delivered: f64,
        schedule: &mut Schedule<Event>,
    ) -> bool {
        self.timeouts.incr();
        self.feed(site, t_s, false);
        let slot = &mut self.slots[site];
        slot.attempts += 1;
        if slot.attempts > self.max_retries {
            return false;
        }
        slot.epoch += 1;
        if self.naive {
            slot.remaining = self.file_size;
        } else {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            self.bytes_resumed.record(delivered as u64);
            slot.remaining = left;
        }
        slot.pending_file = Some(file);
        let nominal = self.backoff_s * 2f64.powi(i32::try_from(slot.attempts - 1).unwrap_or(30));
        let backoff = SimDuration::from_secs(nominal * (0.5 + self.rng.gen::<f64>()));
        let epoch = slot.epoch;
        let at = schedule.now() + backoff;
        schedule.arm_timer(site, at, Event::TransferRetry { site, epoch });
        true
    }

    /// `site`'s backoff elapsed at `t_s`: ticks the breakers and takes the
    /// file to re-fetch and the bytes the retry carries.
    pub(crate) fn take_retry(&mut self, site: usize, t_s: f64) -> Option<(FileId, f64)> {
        self.tick_breakers(t_s, &mut []);
        let slot = &mut self.slots[site];
        Some((slot.pending_file.take()?, slot.remaining))
    }

    /// Picks the source of `site`'s retry among `candidates`: the best
    /// route breaker score, ties to the first listed (no RNG draw); `None`,
    /// the origin, in naive mode or when no candidate scores above zero.
    /// Counts the retry and any failover.
    pub(crate) fn retry_source(
        &mut self,
        site: usize,
        candidates: impl Iterator<Item = usize>,
    ) -> Option<usize> {
        let mut source = None;
        if !self.naive {
            let mut best = 0.0_f64;
            for s in candidates {
                let score = self.breakers[s].score_factor();
                if score > best {
                    (source, best) = (Some(s), score);
                }
            }
        }
        self.slots[site].source = source;
        self.retries.incr();
        if source.is_some() {
            self.failovers.incr();
        }
        source
    }

    /// Ticks every breaker at `t_s` (open ones may have cooled into
    /// half-open), then multiplies each site's route breaker factor into
    /// its placement score in `scores` (empty: only tick).
    pub(crate) fn tick_breakers(&mut self, t_s: f64, scores: &mut [f64]) {
        for b in &mut self.breakers {
            let _ = b.tick(t_s);
        }
        for (score, breaker) in scores.iter_mut().zip(&self.breakers) {
            *score *= breaker.score_factor();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use gridsched_core::StrategyKind;
    use gridsched_des::Schedule;
    use gridsched_workload::coadd::CoaddConfig;

    const FILE: FileId = FileId(7);

    fn guard(naive: bool, retries: u32) -> XferGuard {
        let wl = Arc::new(CoaddConfig::small(0).generate());
        let config = SimConfig::paper(wl, StrategyKind::Rest)
            .with_sites(2)
            .with_transfer_timeout(2.0)
            .with_transfer_retries(retries)
            .with_retry_backoff(10.0);
        let config = if naive {
            config.with_naive_retry()
        } else {
            config
        };
        XferGuard::new(&config, &Telemetry::disabled()).expect("a timeout is configured")
    }

    /// Pops the schedule's next event, which must be `site`'s timer.
    fn fire(sched: &mut Schedule<Event>, site: usize) -> (f64, Event) {
        assert!(sched.timer_armed(site));
        let (at, event) = sched.next().expect("the timer is pending");
        assert!(!sched.timer_armed(site), "a dispatched timer is gone");
        (at.as_secs(), event)
    }

    /// Arms `site`'s fetch of `bytes` and returns the timeout's epoch.
    fn arm(g: &mut XferGuard, sched: &mut Schedule<Event>, site: usize, bytes: f64) -> u64 {
        g.arm(site, true, bytes, 1e6, 0.0, sched);
        assert!(sched.timer_armed(site), "arming sets the site's timer");
        g.slots[site].epoch
    }

    /// Fires `site`'s deadline with half its bytes delivered, then the
    /// retry, and re-issues the fetch; returns the retry's delay, `None`
    /// once spent.
    fn time_out_and_retry(
        g: &mut XferGuard,
        sched: &mut Schedule<Event>,
        site: usize,
    ) -> Option<f64> {
        let (timeout_at, event) = fire(sched, site);
        assert!(matches!(event, Event::TransferTimeout { site: s, .. } if s == site));
        let half = g.remaining(site) / 2.0;
        if !g.timed_out(site, 0.0, FILE, half, half, sched) {
            assert!(!sched.timer_armed(site), "a spent budget arms no retry");
            return None;
        }
        let (retry_at, event) = fire(sched, site);
        assert!(matches!(event, Event::TransferRetry { site: s, .. } if s == site));
        let (_, bytes) = g.take_retry(site, 0.0).expect("a file awaits");
        g.arm(site, false, bytes, 1e6, 0.0, sched);
        Some(retry_at - timeout_at)
    }

    #[test]
    fn backoff_doubles_per_attempt_within_its_jitter_band() {
        let (mut g, mut sched) = (guard(false, 10), Schedule::new());
        arm(&mut g, &mut sched, 0, 1e6);
        for k in 1..=10 {
            let delay = time_out_and_retry(&mut g, &mut sched, 0).expect("budget left");
            let nominal = 10.0 * 2f64.powi(k - 1);
            assert!(
                (0.5 * nominal..1.5 * nominal).contains(&delay),
                "attempt {k}: delay {delay} outside [0.5, 1.5) x {nominal}"
            );
        }
    }

    #[test]
    fn a_stale_epoch_is_ignored() {
        let (mut g, mut sched) = (guard(false, 3), Schedule::new());
        let first = arm(&mut g, &mut sched, 1, 1e6);
        assert!(g.is_live(1, first));
        g.stand_down(1);
        assert!(!g.is_live(1, first), "a stand-down retires the epoch");
        sched.disarm_timer(1);
        let second = arm(&mut g, &mut sched, 1, 1e6);
        assert!(g.is_live(1, second));
        assert!(!g.is_live(1, first), "a re-arm leaves the old epoch stale");
        assert!(g.is_live(0, 0), "other sites keep their own epochs");
    }

    #[test]
    fn timeout_number_max_retries_plus_one_spends_the_budget() {
        for retries in [0, 1, 3] {
            let (mut g, mut sched) = (guard(false, retries), Schedule::new());
            arm(&mut g, &mut sched, 0, 1e6);
            for n in 1..=retries {
                assert!(
                    time_out_and_retry(&mut g, &mut sched, 0).is_some(),
                    "timeout {n} of {retries} retries"
                );
            }
            assert_eq!(
                time_out_and_retry(&mut g, &mut sched, 0),
                None,
                "{retries} retries"
            );
        }
    }

    #[test]
    fn naive_retries_resend_the_whole_file_and_resumed_ones_what_is_left() {
        for naive in [true, false] {
            let (mut g, mut sched) = (guard(naive, 3), Schedule::new());
            let size = g.file_size;
            arm(&mut g, &mut sched, 0, size);
            let left = size / 4.0;
            fire(&mut sched, 0);
            assert!(g.timed_out(0, 0.0, FILE, left, size - left, &mut sched));
            let expected = if naive { size } else { left };
            assert_eq!(g.remaining(0), expected, "naive {naive}");
            assert_eq!(g.take_retry(0, 0.0), Some((FILE, expected)));
        }
    }
}
