//! Simulation driver: clock + event queue.
//!
//! [`Schedule`] owns an [`EventQueue`] and the current simulation time. It is
//! deliberately minimal: the grid simulator (in `gridsched-sim`) pulls events
//! one at a time with [`Schedule::next`] and dispatches them itself, which
//! keeps borrow patterns simple for large mutable simulation states.
//!
//! Besides the events it schedules, a [`Schedule`] holds at most one
//! *armed* event ([`Schedule::arm`]): an event the owner re-aims often and
//! never needs a handle to, kept outside the heap. It dispatches exactly
//! where a cancel of the previous armed event plus a fresh
//! [`Schedule::schedule_at`] would have put it (see the
//! [queue docs](crate::queue)).

use crate::queue::{EventHandle, EventQueue};
use crate::time::{SimDuration, SimTime};

/// A simulation clock bound to an event queue.
///
/// Guarantees that time never moves backwards: every popped event advances
/// the clock monotonically, and scheduling an event in the past panics.
///
/// # Example
///
/// ```
/// use gridsched_des::{Schedule, SimDuration, SimTime};
///
/// let mut s: Schedule<&str> = Schedule::new();
/// s.schedule_in(SimDuration::from_secs(5.0), "tick");
/// let (t, ev) = s.next().expect("one event pending");
/// assert_eq!(ev, "tick");
/// assert_eq!(s.now(), SimTime::from_secs(5.0));
/// assert_eq!(t, s.now());
/// ```
#[derive(Debug)]
pub struct Schedule<E> {
    queue: EventQueue<E>,
    now: SimTime,
    dispatched: u64,
}

impl<E> Default for Schedule<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Schedule<E> {
    /// Creates a schedule with the clock at [`SimTime::ZERO`].
    #[must_use]
    pub fn new() -> Self {
        Schedule {
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            dispatched: 0,
        }
    }

    /// Current simulation time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total number of events dispatched so far.
    #[must_use]
    pub fn dispatched(&self) -> u64 {
        self.dispatched
    }

    /// Schedules `event` at the absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the current time or is not finite.
    pub fn schedule_at(&mut self, at: SimTime, event: E) -> EventHandle {
        self.check_time(at);
        self.queue.push(at, event)
    }

    /// Panics unless an event can be scheduled at `at`: not before the
    /// current time, and finite.
    fn check_time(&self, at: SimTime) {
        assert!(
            at >= self.now,
            "cannot schedule event in the past: at={at:?} now={:?}",
            self.now
        );
        assert!(at.is_finite(), "cannot schedule event at FAR_FUTURE");
    }

    /// Schedules `event` after a delay from the current time.
    ///
    /// # Panics
    ///
    /// Panics if `delay` is not finite.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) -> EventHandle {
        self.schedule_at(self.now + delay, event)
    }

    /// Schedules `event` at the current instant (still FIFO-ordered after
    /// events already scheduled for this instant).
    pub fn schedule_now(&mut self, event: E) -> EventHandle {
        self.schedule_at(self.now, event)
    }

    /// Arms `event` at the absolute time `at`, replacing the armed event,
    /// if any. It dispatches where cancelling the previous armed event and
    /// calling `schedule_at(at, event)` would: after the events already
    /// scheduled for `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the current time or is not finite.
    pub fn arm(&mut self, at: SimTime, event: E) {
        self.check_time(at);
        self.queue.arm(at, event);
    }

    /// Drops the armed event, if any.
    pub fn disarm(&mut self) {
        self.queue.disarm();
    }

    /// Cancels a pending event. Returns `true` if it had not yet fired.
    pub fn cancel(&mut self, handle: EventHandle) -> bool {
        self.queue.cancel(handle)
    }

    /// Pops the next event, advancing the clock to its timestamp.
    ///
    /// Returns `None` when no events remain (the simulation is over).
    // Deliberately named like `Iterator::next` (same semantics), but the
    // driver cannot be an `Iterator`: the borrow must end between events.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<(SimTime, E)> {
        let (at, event) = self.queue.pop()?;
        debug_assert!(at >= self.now, "event queue yielded a past event");
        self.now = at;
        self.dispatched += 1;
        Some((at, event))
    }

    /// Timestamp of the next pending event without popping it.
    #[must_use]
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Number of pending events.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Whether any events are pending.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_advances_monotonically() {
        let mut s: Schedule<u32> = Schedule::new();
        s.schedule_at(SimTime::from_secs(10.0), 1);
        s.schedule_at(SimTime::from_secs(4.0), 2);
        s.schedule_at(SimTime::from_secs(7.0), 3);
        let mut last = SimTime::ZERO;
        while let Some((t, _)) = s.next() {
            assert!(t >= last);
            last = t;
        }
        assert_eq!(last, SimTime::from_secs(10.0));
        assert_eq!(s.now(), SimTime::from_secs(10.0));
        assert_eq!(s.dispatched(), 3);
    }

    #[test]
    fn schedule_now_is_fifo() {
        let mut s: Schedule<u32> = Schedule::new();
        s.schedule_now(1);
        s.schedule_now(2);
        assert_eq!(s.next().map(|(_, e)| e), Some(1));
        assert_eq!(s.next().map(|(_, e)| e), Some(2));
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn scheduling_in_past_panics() {
        let mut s: Schedule<u32> = Schedule::new();
        s.schedule_at(SimTime::from_secs(5.0), 1);
        s.next();
        s.schedule_at(SimTime::from_secs(1.0), 2);
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn arming_in_past_panics() {
        let mut s: Schedule<u32> = Schedule::new();
        s.schedule_at(SimTime::from_secs(5.0), 1);
        s.next();
        s.arm(SimTime::from_secs(1.0), 2);
    }

    #[test]
    #[should_panic(expected = "FAR_FUTURE")]
    fn arming_at_far_future_panics() {
        let mut s: Schedule<u32> = Schedule::new();
        s.arm(SimTime::FAR_FUTURE, 1);
    }

    #[test]
    fn armed_event_tied_with_queued_events_dispatches_in_sequence_order() {
        let mut s: Schedule<&str> = Schedule::new();
        let at = SimTime::from_secs(2.0);
        s.schedule_at(at, "queued first");
        s.arm(at, "armed");
        s.schedule_at(at, "queued last");
        assert_eq!(s.pending(), 3);
        let order: Vec<&str> = std::iter::from_fn(|| s.next().map(|(_, e)| e)).collect();
        assert_eq!(order, ["queued first", "armed", "queued last"]);
        assert_eq!(s.dispatched(), 3);
        assert!(s.is_idle());
    }

    #[test]
    fn cancel_through_schedule() {
        let mut s: Schedule<&str> = Schedule::new();
        let h = s.schedule_in(SimDuration::from_secs(1.0), "a");
        s.schedule_in(SimDuration::from_secs(2.0), "b");
        assert!(s.cancel(h));
        assert_eq!(s.next().map(|(_, e)| e), Some("b"));
        assert!(s.is_idle());
    }

    #[test]
    fn peek_does_not_advance_clock() {
        let mut s: Schedule<u8> = Schedule::new();
        s.schedule_at(SimTime::from_secs(3.0), 0);
        assert_eq!(s.peek_time(), Some(SimTime::from_secs(3.0)));
        assert_eq!(s.now(), SimTime::ZERO);
        assert_eq!(s.pending(), 1);
    }
}
