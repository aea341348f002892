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

struct Entry<E> {
    at: SimTime,
    seq: u64,
    slot: u32,
    event: E,
}

// Reverse ordering: BinaryHeap is a max-heap, we want earliest-first, and for
// equal times, smallest sequence number first (FIFO).
impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
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
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
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
    /// Number of live (pushed, not yet popped or cancelled) events.
    live: usize,
    next_seq: u64,
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

    /// Removes and returns the earliest live event, skipping cancelled ones.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        while let Some(entry) = self.heap.pop() {
            let seq = std::mem::replace(&mut self.slots[entry.slot as usize], DEAD);
            self.free.push(entry.slot);
            if seq == entry.seq {
                self.live -= 1;
                return Some((entry.at, entry.event));
            }
        }
        None
    }

    /// The timestamp of the earliest live event, if any.
    ///
    /// Takes `&mut self` because it opportunistically drains cancelled
    /// entries off the top of the heap.
    #[must_use]
    pub fn peek_time(&mut self) -> Option<SimTime> {
        while let Some(entry) = self.heap.peek() {
            if self.slots[entry.slot as usize] == entry.seq {
                return Some(entry.at);
            }
            let slot = entry.slot;
            self.heap.pop();
            self.free.push(slot);
        }
        None
    }

    /// Number of live (non-cancelled) events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the queue holds no live events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("live", &self.live)
            .field("heap_len", &self.heap.len())
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
        /// handles alike) and peek agree with a sorted-`Vec` model at every
        /// step: same popped event, same peeked time, same cancel result,
        /// same length.
        #[test]
        fn matches_sorted_vec_model(
            ops in proptest::collection::vec((0u8..4, 0u32..50, any::<u16>()), 1..200),
        ) {
            let mut q = EventQueue::new();
            // Model: live (time, seq, id) triples; the queue pops the least.
            let mut model: Vec<(u32, u64, usize)> = Vec::new();
            // Every handle ever issued, with the model's id for it.
            let mut handles: Vec<(EventHandle, u64)> = Vec::new();
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
                    _ => {
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
                                let (t, _, id) = model.remove(i);
                                (t, id)
                            });
                            prop_assert_eq!(got, want);
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
