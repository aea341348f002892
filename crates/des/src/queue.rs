//! Cancellable, FIFO-stable event priority queue.
//!
//! [`EventQueue`] orders events primarily by [`SimTime`] and secondarily by
//! insertion order, so two events scheduled for the same instant pop in the
//! order they were pushed — this keeps simulations deterministic.
//!
//! Cancellation is O(1) and hash-free. Every heap entry owns a *slot*, and
//! `slots[slot]` holds the sequence number of the live event in it, or a
//! dead marker once that event is cancelled. Cancelling just writes the
//! marker; the entry stays in the heap and is discarded when it surfaces.
//! A slot returns to the free list only when its heap entry is popped, so
//! while an entry is in the heap nobody else can own its slot, and a stale
//! [`EventHandle`] (its event fired or was cancelled, the slot perhaps
//! reused since) fails the sequence check and is a no-op.
//!
//! # The armed event
//!
//! Besides the heap, the queue holds at most one *armed* event
//! ([`EventQueue::arm`]), for an owner that keeps exactly one event of a
//! kind pending and moves it often — the simulator's next flow completion,
//! re-aimed after every change to the flow set. Re-arming overwrites the
//! entry in place: no heap push, no dead entry left behind for a later pop
//! to skip.
//!
//! Dispatch order is exactly that of the heap-only queue in which each
//! `arm` is a cancel of the previously armed event followed by a push:
//!
//! * `arm` takes a fresh sequence number from the same counter as
//!   [`EventQueue::push`], so every event — armed or pushed — carries the
//!   number the heap-only queue would have given it;
//! * a replaced or disarmed event is gone, as a cancelled one is;
//! * [`EventQueue::pop`] and [`EventQueue::peek_time`] compare the armed
//!   entry with the earliest live heap entry on the same `(time, sequence)`
//!   key the heap orders by, and the keys are unique, so the armed event
//!   pops exactly when it would have surfaced from the heap.
//!
//! Re-arming takes a new number even when `(time, event)` is unchanged.
//! Keeping the old one would let the re-armed event pop before events
//! pushed for the same instant between the two arms, which the cancel and
//! push it stands for would have let go first.
//!
//! # Keyed timers
//!
//! An owner that keeps at most one pending event *per small integer key*
//! and moves or drops it often — the simulator's per-site transfer
//! deadline, re-aimed on every guarded file hop — arms it as a *keyed
//! timer* ([`EventQueue::arm_timer`], [`EventQueue::disarm_timer`]). The
//! timers live in an indexed min-heap beside the main heap, with each
//! key's position in it, so re-aiming one re-sifts it in place and
//! disarming one removes it outright: no dead entry is left in the main
//! heap for a later pop to skip.
//!
//! The dispatch order argument is the armed event's, key by key: every
//! `arm_timer` takes a fresh sequence number from the shared counter, a
//! replaced or disarmed timer is gone as a cancelled event is, and `pop`
//! and `peek_time` take the least `(time, sequence)` key among the heap
//! top, the armed event and the earliest timer. So arming a key is exactly
//! a cancel of its previous timer plus a push, and disarming it exactly
//! that cancel. The flow-completion slot above stays separate: it is
//! re-armed after nearly every event, and a plain field is cheaper to
//! overwrite than a heap entry to re-sift.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// A handle identifying a scheduled event, used to cancel it later.
///
/// Handles are unique over the lifetime of one [`EventQueue`]; cancelling a
/// handle twice, or after its event fired, is a no-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventHandle {
    seq: u64,
    slot: u32,
}

/// `slots` marker for a slot whose event was cancelled or popped
/// (sequence numbers never reach it).
const DEAD: u64 = u64::MAX;

/// `Entry::slot` of the armed event, which owns no slot.
const ARMED: u32 = u32::MAX;

/// `Timers::at` marker for a key with no timer armed.
const UNARMED: u32 = u32::MAX;

struct Entry<E> {
    at: SimTime,
    seq: u64,
    slot: u32,
    event: E,
}

impl<E> Entry<E> {
    /// The `(time, sequence)` key every source of events orders by.
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

/// Keyed timers: an indexed binary min-heap on `(time, sequence)`, at most
/// one entry per key. An entry's `slot` holds its key, and `at[key]` is the
/// entry's heap index, or [`UNARMED`].
struct Timers<E> {
    heap: Vec<Entry<E>>,
    at: Vec<u32>,
}

impl<E> Timers<E> {
    fn peek(&self) -> Option<&Entry<E>> {
        self.heap.first()
    }

    fn is_armed(&self, key: usize) -> bool {
        self.at.get(key).is_some_and(|&i| i != UNARMED)
    }

    /// Files `entry` under its key, replacing the key's timer, if any.
    fn set(&mut self, entry: Entry<E>) {
        let key = entry.slot as usize;
        if key >= self.at.len() {
            self.at.resize(key + 1, UNARMED);
        }
        let i = self.at[key];
        if i == UNARMED {
            self.heap.push(entry);
            self.sift_up(self.heap.len() - 1);
            return;
        }
        let i = i as usize;
        let later = entry.key() > self.heap[i].key();
        self.heap[i] = entry;
        if later {
            self.sift_down(i);
        } else {
            self.sift_up(i);
        }
    }

    /// Takes `key`'s timer out, if one is armed.
    fn remove(&mut self, key: usize) -> Option<Entry<E>> {
        let i = *self.at.get(key).filter(|&&i| i != UNARMED)? as usize;
        self.at[key] = UNARMED;
        let entry = self.heap.swap_remove(i);
        if i < self.heap.len() {
            // The last entry moved into the hole; either sift re-indexes it.
            if self.heap[i].key() < entry.key() {
                self.sift_up(i);
            } else {
                self.sift_down(i);
            }
        }
        Some(entry)
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[parent].key() <= self.heap[i].key() {
                break;
            }
            self.swap(i, parent);
            i = parent;
        }
        self.at[self.heap[i].slot as usize] = i as u32;
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.heap.len();
        loop {
            let mut child = 2 * i + 1;
            if child >= n {
                break;
            }
            if child + 1 < n && self.heap[child + 1].key() < self.heap[child].key() {
                child += 1;
            }
            if self.heap[i].key() <= self.heap[child].key() {
                break;
            }
            self.swap(i, child);
            i = child;
        }
        self.at[self.heap[i].slot as usize] = i as u32;
    }

    /// Swaps two entries, re-indexing the one that lands at `a`.
    fn swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.at[self.heap[a].slot as usize] = a as u32;
    }
}

/// Where the earliest live event sits.
#[derive(Clone, Copy)]
enum Source {
    Heap,
    Armed,
    Timer,
}

// Reverse ordering: BinaryHeap is a max-heap, we want earliest-first, and for
// equal times, smallest sequence number first (FIFO).
impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.key().cmp(&self.key())
    }
}

/// A priority queue of timestamped events with stable ordering and O(1)
/// cancellation.
///
/// # Example
///
/// ```
/// use gridsched_des::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_secs(1.0), 'a');
/// q.push(SimTime::from_secs(1.0), 'b');
/// assert_eq!(q.pop().map(|(_, e)| e), Some('a')); // FIFO at equal times
/// assert_eq!(q.pop().map(|(_, e)| e), Some('b'));
/// assert!(q.is_empty());
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    /// Per slot: the sequence number of the live event in it, or [`DEAD`].
    /// One slot per heap entry, live or cancelled.
    slots: Vec<u64>,
    /// Slots whose heap entry has been popped.
    free: Vec<u32>,
    /// Number of live (pushed, not yet popped or cancelled) heap events.
    live: usize,
    next_seq: u64,
    /// The armed event, kept outside the heap (see the
    /// [module docs](self)).
    armed: Option<Entry<E>>,
    /// The keyed timers (see the [module docs](self#keyed-timers)).
    timers: Timers<E>,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            next_seq: 0,
            armed: None,
            timers: Timers {
                heap: Vec::new(),
                at: Vec::new(),
            },
        }
    }

    /// Schedules `event` at absolute time `at`, returning a handle that can
    /// cancel it.
    pub fn push(&mut self, at: SimTime, event: E) -> EventHandle {
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = seq;
                slot
            }
            None => {
                self.slots.push(seq);
                (self.slots.len() - 1) as u32
            }
        };
        self.heap.push(Entry {
            at,
            seq,
            slot,
            event,
        });
        self.live += 1;
        EventHandle { seq, slot }
    }

    /// Cancels a previously scheduled event.
    ///
    /// Returns `true` if the event was still pending, `false` if it already
    /// fired or was already cancelled.
    pub fn cancel(&mut self, handle: EventHandle) -> bool {
        match self.slots.get_mut(handle.slot as usize) {
            Some(seq) if *seq == handle.seq => {
                *seq = DEAD;
                self.live -= 1;
                true
            }
            _ => false,
        }
    }

    /// Arms `event` at `at`, replacing the armed event, if any. Every call
    /// takes a fresh sequence number, even for an unchanged `(at, event)`,
    /// so the event pops exactly where cancelling the previous armed event
    /// and pushing this one would put it (see the [module docs](self)).
    pub fn arm(&mut self, at: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.armed = Some(Entry {
            at,
            seq,
            slot: ARMED,
            event,
        });
    }

    /// Drops the armed event, if any.
    pub fn disarm(&mut self) {
        self.armed = None;
    }

    /// Arms `event` at `at` as the timer of `key`, replacing that key's
    /// timer, if any. Like [`EventQueue::arm`], every call takes a fresh
    /// sequence number, so the event pops exactly where cancelling the
    /// key's previous timer and pushing this one would put it (see the
    /// [module docs](self#keyed-timers)). Keys index a table, so keep them
    /// small and dense.
    ///
    /// # Panics
    ///
    /// Panics if `key` does not fit in a `u32`.
    pub fn arm_timer(&mut self, key: usize, at: SimTime, event: E) {
        let slot = u32::try_from(key).expect("timer key fits in a u32");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.timers.set(Entry {
            at,
            seq,
            slot,
            event,
        });
    }

    /// Drops `key`'s timer; a no-op when none is armed.
    pub fn disarm_timer(&mut self, key: usize) {
        self.timers.remove(key);
    }

    /// Whether `key` has a timer armed.
    #[must_use]
    pub fn timer_armed(&self, key: usize) -> bool {
        self.timers.is_armed(key)
    }

    /// Removes and returns the earliest live event, skipping cancelled ones.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = match self.earliest()? {
            Source::Heap => {
                let entry = self.heap.pop().expect("earliest is the heap top");
                self.slots[entry.slot as usize] = DEAD;
                self.free.push(entry.slot);
                self.live -= 1;
                entry
            }
            Source::Armed => self.armed.take().expect("earliest is the armed event"),
            Source::Timer => {
                let key = self.timers.peek().expect("earliest is a timer").slot;
                self.timers.remove(key as usize).expect("key is armed")
            }
        };
        Some((entry.at, entry.event))
    }

    /// The timestamp of the earliest live event, if any.
    ///
    /// Takes `&mut self` because it opportunistically drains cancelled
    /// entries off the top of the heap.
    #[must_use]
    pub fn peek_time(&mut self) -> Option<SimTime> {
        Some(match self.earliest()? {
            Source::Heap => self.heap.peek().expect("earliest is the heap top").at,
            Source::Armed => self.armed.as_ref().expect("earliest is armed").at,
            Source::Timer => self.timers.peek().expect("earliest is a timer").at,
        })
    }

    /// Which source holds the earliest live event on the `(time,
    /// sequence)` key: the heap top (cancelled entries dropped first), the
    /// armed event or the earliest timer. Keys are unique, so there is
    /// never a tie.
    #[inline]
    fn earliest(&mut self) -> Option<Source> {
        self.drop_dead_top();
        let mut best = self.heap.peek().map(|top| (top.key(), Source::Heap));
        for (key, source) in [
            (self.armed.as_ref().map(Entry::key), Source::Armed),
            (self.timers.peek().map(Entry::key), Source::Timer),
        ] {
            if let Some(key) = key {
                if best.as_ref().is_none_or(|&(b, _)| key < b) {
                    best = Some((key, source));
                }
            }
        }
        best.map(|(_, source)| source)
    }

    /// Pops cancelled entries off the top of the heap, so that its top, if
    /// any, is live.
    fn drop_dead_top(&mut self) {
        while let Some(entry) = self.heap.peek() {
            if self.slots[entry.slot as usize] == entry.seq {
                return;
            }
            let slot = entry.slot;
            self.heap.pop();
            self.free.push(slot);
        }
    }

    /// Number of live (non-cancelled) events, the armed one and the
    /// keyed timers included.
    #[must_use]
    pub fn len(&self) -> usize {
        self.live + usize::from(self.armed.is_some()) + self.timers.heap.len()
    }

    /// Whether the queue holds no live events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("live", &self.live)
            .field("heap_len", &self.heap.len())
            .field("armed", &self.armed.is_some())
            .field("timers", &self.timers.heap.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(t(3.0), 3);
        q.push(t(1.0), 1);
        q.push(t(2.0), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn fifo_for_equal_times() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(t(5.0), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn cancellation() {
        let mut q = EventQueue::new();
        let _a = q.push(t(1.0), "a");
        let b = q.push(t(2.0), "b");
        let c = q.push(t(3.0), "c");
        assert!(q.cancel(b));
        assert!(!q.cancel(b), "double cancel is a no-op");
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop().map(|(_, e)| e), Some("a"));
        assert_eq!(q.pop().map(|(_, e)| e), Some("c"));
        assert!(q.pop().is_none());
        assert!(!q.cancel(c), "cancel after fire is a no-op");
    }

    #[test]
    fn cancel_after_fire_does_not_corrupt_len() {
        let mut q = EventQueue::new();
        let a = q.push(t(1.0), "a");
        q.push(t(2.0), "b");
        assert_eq!(q.pop().map(|(_, e)| e), Some("a"));
        assert!(!q.cancel(a));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().map(|(_, e)| e), Some("b"));
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_unknown_handle_is_noop() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(!q.cancel(EventHandle { seq: 42, slot: 0 }));
        // A handle naming a live slot with the wrong sequence is unknown too.
        let live = q.push(t(1.0), ());
        assert!(!q.cancel(EventHandle {
            seq: 42,
            slot: live.slot,
        }));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn stale_handle_cannot_cancel_the_reuser_of_its_slot() {
        let mut q = EventQueue::new();
        let a = q.push(t(1.0), "a");
        assert_eq!(q.pop().map(|(_, e)| e), Some("a"));
        let b = q.push(t(2.0), "b");
        assert_eq!(b.slot, a.slot, "b reuses a's freed slot");
        assert!(!q.cancel(a), "a already fired");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().map(|(_, e)| e), Some("b"));
        assert!(q.is_empty());
    }

    #[test]
    fn cancelled_slot_stays_taken_until_its_entry_pops() {
        let mut q = EventQueue::new();
        let a = q.push(t(5.0), "a");
        assert!(q.cancel(a));
        // The cancelled entry is still in the heap: a new push must not
        // reuse its slot, or the dead entry would surface as live.
        let b = q.push(t(1.0), "b");
        assert_ne!(b.slot, a.slot);
        assert_eq!(q.pop().map(|(_, e)| e), Some("b"));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn peek_skips_cancelled() {
        let mut q = EventQueue::new();
        let a = q.push(t(1.0), "a");
        q.push(t(2.0), "b");
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(t(2.0)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn empty_behaviour() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        assert_eq!(q.peek_time(), None);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn armed_event_pops_in_sequence_order_among_ties() {
        let mut q = EventQueue::new();
        q.push(t(1.0), "queued before");
        q.arm(t(1.0), "armed");
        q.push(t(1.0), "queued after");
        q.push(t(0.5), "earlier");
        assert_eq!(q.len(), 4);
        assert_eq!(q.peek_time(), Some(t(0.5)));
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, ["earlier", "queued before", "armed", "queued after"]);
    }

    #[test]
    fn rearming_replaces_and_takes_a_fresh_sequence() {
        let mut q = EventQueue::new();
        q.arm(t(2.0), "stale");
        q.push(t(2.0), "queued");
        // Re-armed at the same instant: it now sorts after `queued`, as a
        // cancel plus a fresh push would.
        q.arm(t(2.0), "armed");
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop().map(|(_, e)| e), Some("queued"));
        assert_eq!(q.pop().map(|(_, e)| e), Some("armed"));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn disarm_drops_the_armed_event() {
        let mut q = EventQueue::new();
        q.arm(t(1.0), 'a');
        let b = q.push(t(3.0), 'b');
        q.disarm();
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(t(3.0)));
        // A cancelled heap top does not hide the armed event behind it.
        q.arm(t(4.0), 'c');
        assert!(q.cancel(b));
        assert_eq!(q.peek_time(), Some(t(4.0)));
        assert_eq!(q.pop().map(|(_, e)| e), Some('c'));
        assert!(q.is_empty());
    }

    #[test]
    fn keyed_timer_tied_with_queued_and_armed_events_pops_in_sequence_order() {
        let mut q = EventQueue::new();
        q.push(t(1.0), "queued first");
        q.arm_timer(3, t(1.0), "timer 3");
        q.arm(t(1.0), "armed");
        q.arm_timer(0, t(1.0), "timer 0");
        q.push(t(1.0), "queued last");
        q.arm_timer(1, t(0.5), "timer 1, earlier");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(
            order,
            [
                "timer 1, earlier",
                "queued first",
                "timer 3",
                "armed",
                "timer 0",
                "queued last"
            ]
        );
        assert!(q.is_empty());
        assert!(!q.timer_armed(0) && !q.timer_armed(1) && !q.timer_armed(3));
    }

    #[test]
    fn rearming_a_timer_replaces_it_with_a_fresh_sequence() {
        let mut q = EventQueue::new();
        q.arm_timer(2, t(2.0), "stale");
        q.push(t(2.0), "queued");
        // Re-armed at the same instant: it now sorts after `queued`, as a
        // cancel plus a fresh push would.
        q.arm_timer(2, t(2.0), "timer");
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop().map(|(_, e)| e), Some("queued"));
        assert_eq!(q.pop().map(|(_, e)| e), Some("timer"));
        assert_eq!(q.pop(), None);
        // Re-aimed earlier and later among other keys' timers.
        q.arm_timer(0, t(5.0), "zero");
        q.arm_timer(1, t(6.0), "one");
        q.arm_timer(1, t(4.0), "one, earlier");
        q.arm_timer(0, t(7.0), "zero, later");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, ["one, earlier", "zero, later"]);
    }

    #[test]
    fn disarming_an_unarmed_key_is_a_noop() {
        let mut q = EventQueue::new();
        q.disarm_timer(7);
        q.push(t(1.0), 'a');
        q.arm_timer(1, t(2.0), 'b');
        q.disarm_timer(0);
        q.disarm_timer(9);
        assert_eq!(q.len(), 2);
        q.disarm_timer(1);
        q.disarm_timer(1);
        assert_eq!(q.len(), 1);
        assert!(!q.timer_armed(1));
        assert_eq!(q.pop().map(|(_, e)| e), Some('a'));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn len_and_peek_time_count_keyed_timers() {
        let mut q = EventQueue::new();
        q.arm_timer(0, t(3.0), 0);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        assert_eq!(q.peek_time(), Some(t(3.0)));
        let h = q.push(t(1.0), 1);
        q.arm_timer(4, t(2.0), 4);
        q.arm(t(5.0), 5);
        assert_eq!(q.len(), 4);
        assert_eq!(q.peek_time(), Some(t(1.0)));
        // A cancelled heap top does not hide the timers behind it.
        assert!(q.cancel(h));
        assert_eq!(q.len(), 3);
        assert_eq!(q.peek_time(), Some(t(2.0)));
        q.disarm_timer(4);
        assert_eq!(q.peek_time(), Some(t(3.0)));
        assert_eq!(q.len(), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, [0, 5]);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn interleaved_push_pop_cancel() {
        let mut q = EventQueue::new();
        let h1 = q.push(t(10.0), 1);
        q.push(t(5.0), 2);
        assert_eq!(q.pop().map(|(_, e)| e), Some(2));
        q.cancel(h1);
        q.push(t(1.0), 3);
        assert_eq!(q.pop().map(|(_, e)| e), Some(3));
        assert!(q.is_empty());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Push a batch, cancel a subset, pop everything: the pops are
        /// exactly the non-cancelled entries, ordered by (time, insertion).
        #[test]
        fn pops_are_sorted_stable_and_exclude_cancelled(
            times in proptest::collection::vec(0u32..1000, 1..60),
            cancel_mask in proptest::collection::vec(any::<bool>(), 60),
        ) {
            let mut q = EventQueue::new();
            let mut handles = Vec::new();
            for (i, &t) in times.iter().enumerate() {
                handles.push((i, q.push(SimTime::from_secs(f64::from(t)), i)));
            }
            let mut expected: Vec<(u32, usize)> = Vec::new();
            for (i, &t) in times.iter().enumerate() {
                if cancel_mask.get(i).copied().unwrap_or(false) {
                    prop_assert!(q.cancel(handles[i].1));
                } else {
                    expected.push((t, i));
                }
            }
            expected.sort_by_key(|&(t, i)| (t, i));
            let mut got = Vec::new();
            while let Some((at, ev)) = q.pop() {
                got.push((at.as_secs() as u32, ev));
            }
            prop_assert_eq!(got, expected);
            prop_assert!(q.is_empty());
        }

        /// Interleaved push, pop, cancel (of live, fired and cancelled
        /// handles alike), peek, arm, disarm and keyed `arm_timer` and
        /// `disarm_timer` over a few keys agree with a sorted-`Vec` model at
        /// every step: same popped event, same peeked time, same cancel
        /// result, same length. The model knows no armed event and no
        /// timer: an arm is a cancel of the previously armed event (or of
        /// the key's live timer) plus a push, and a disarm is that cancel
        /// alone, so pops of tied events must follow the sequence numbers
        /// of those pushes.
        #[test]
        fn matches_sorted_vec_model(
            ops in proptest::collection::vec((0u8..8, 0u32..50, any::<u16>()), 1..200),
        ) {
            let mut q = EventQueue::new();
            // Model: live (time, seq, id) triples; the queue pops the least.
            let mut model: Vec<(u32, u64, usize)> = Vec::new();
            // Every handle ever issued, with the model's id for it.
            let mut handles: Vec<(EventHandle, u64)> = Vec::new();
            // The model's seq of the armed event while it is live, and of
            // each key's timer.
            let mut armed: Option<u64> = None;
            let mut timers: [Option<u64>; 5] = [None; 5];
            let mut next_seq = 0u64;
            for (op, time, pick) in ops {
                match op {
                    0 | 1 => {
                        let h = q.push(SimTime::from_secs(f64::from(time)), next_seq as usize);
                        model.push((time, next_seq, next_seq as usize));
                        handles.push((h, next_seq));
                        next_seq += 1;
                    }
                    2 => {
                        if handles.is_empty() {
                            continue;
                        }
                        let (h, seq) = handles[usize::from(pick) % handles.len()];
                        let pos = model.iter().position(|&(_, s, _)| s == seq);
                        prop_assert_eq!(q.cancel(h), pos.is_some());
                        if let Some(pos) = pos {
                            model.remove(pos);
                        }
                    }
                    3 => {
                        if pick % 2 == 0 {
                            let want = model.iter().map(|&(t, s, _)| (t, s)).min();
                            let got = q.peek_time().map(|at| at.as_secs() as u32);
                            prop_assert_eq!(got, want.map(|(t, _)| t));
                        } else {
                            let want = model
                                .iter()
                                .enumerate()
                                .min_by_key(|&(_, &(t, s, _))| (t, s))
                                .map(|(i, _)| i);
                            let got = q.pop().map(|(at, id)| (at.as_secs() as u32, id));
                            let want = want.map(|i| {
                                let (t, s, id) = model.remove(i);
                                for live in std::iter::once(&mut armed).chain(&mut timers) {
                                    if *live == Some(s) {
                                        *live = None;
                                    }
                                }
                                (t, id)
                            });
                            prop_assert_eq!(got, want);
                        }
                    }
                    6 | 7 => {
                        let key = usize::from(pick) % timers.len();
                        if let Some(seq) = timers[key].take() {
                            model.retain(|&(_, s, _)| s != seq);
                        }
                        if op == 6 {
                            q.arm_timer(key, SimTime::from_secs(f64::from(time)), next_seq as usize);
                            model.push((time, next_seq, next_seq as usize));
                            timers[key] = Some(next_seq);
                            next_seq += 1;
                        } else {
                            q.disarm_timer(key);
                        }
                        for (k, live) in timers.iter().enumerate() {
                            prop_assert_eq!(q.timer_armed(k), live.is_some());
                        }
                    }
                    _ => {
                        if let Some(seq) = armed.take() {
                            model.retain(|&(_, s, _)| s != seq);
                        }
                        if op == 4 {
                            q.arm(SimTime::from_secs(f64::from(time)), next_seq as usize);
                            model.push((time, next_seq, next_seq as usize));
                            armed = Some(next_seq);
                            next_seq += 1;
                        } else {
                            q.disarm();
                        }
                    }
                }
                prop_assert_eq!(q.len(), model.len());
                prop_assert_eq!(q.is_empty(), model.is_empty());
            }
            model.sort_unstable();
            let mut rest = Vec::new();
            while let Some((at, id)) = q.pop() {
                rest.push((at.as_secs() as u32, id));
            }
            let want: Vec<(u32, usize)> = model.iter().map(|&(t, _, id)| (t, id)).collect();
            prop_assert_eq!(rest, want);
        }

        /// len() always equals pushes − pops − successful cancels.
        #[test]
        fn len_is_consistent(ops in proptest::collection::vec(0u8..3, 1..120)) {
            let mut q = EventQueue::new();
            let mut handles: Vec<EventHandle> = Vec::new();
            let mut live: i64 = 0;
            let mut tick = 0.0;
            for op in ops {
                match op {
                    0 => {
                        tick += 1.0;
                        handles.push(q.push(SimTime::from_secs(tick), ()));
                        live += 1;
                    }
                    1 => {
                        if let Some(h) = handles.pop() {
                            if q.cancel(h) {
                                live -= 1;
                            }
                        }
                    }
                    _ => {
                        if q.pop().is_some() {
                            live -= 1;
                        }
                    }
                }
                prop_assert_eq!(q.len() as i64, live);
            }
        }
    }
}
