//! Stateful fluid network engine.
//!
//! [`NetSim`] tracks the set of active flows and their max–min fair rates.
//! The owner drives it with wall-clock-style calls:
//!
//! 1. [`NetSim::start_flow`] / [`NetSim::cancel_flow`] / [`NetSim::finish_flow`]
//!    mutate the flow set (each call first moves the engine clock to `now`;
//!    rates are recomputed lazily at the next observation point),
//! 2. [`NetSim::next_completion`] reports when the earliest active flow will
//!    finish if nothing else changes — the owner schedules exactly one DES
//!    event for that instant and re-queries after every mutation.
//!
//! A flow's lifetime is `latency + bytes / rate(t)`: the latency phase
//! elapses first (propagation), then bytes drain at the flow's current
//! max–min rate.
//!
//! # Rate epochs
//!
//! No call drains every flow. Each flow records `start` (its start time
//! plus latency, when bytes may begin to drain), `epoch` (when its current
//! rate took effect), `bytes_at_epoch` (bytes left at `max(epoch, start)`)
//! and its rate, so the bytes left at any `t` are
//!
//! ```text
//! remaining(t) = bytes_at_epoch − rate · (t − max(epoch, start))   (≥ 0)
//! ```
//!
//! and its completion instant `max(epoch, start) + bytes_at_epoch / rate`
//! (`start` for a co-located flow at rate `+∞`, never for a stalled flow
//! at rate `0`) is cached and filed in a min-heap keyed by
//! `(eta, creation ordinal)`. The drain is materialised only where someone
//! looks:
//!
//! * [`NetSim::cancel_flow`] returns `remaining(now)`;
//! * [`NetSim::finish_flow`] checks that `remaining(now)` is within its
//!   slack;
//! * a solve that changes a flow's rate re-bases that flow at `now`
//!   (`bytes_at_epoch = remaining(now)`, `epoch = now`) and re-files its
//!   completion in the heap.
//!
//! A solve that leaves a flow's rate bit-identical leaves its epoch and
//! completion alone. A flow started on a slot the solver revived (a
//! same-route swap, see [`MaxMinSolver`]) takes that slot's still-exact
//! rate and files its real completion at once; any other flow files no
//! completion until the solve its start made due reads every flow. A
//! skipped solve therefore reads nothing, and no list of newly started
//! flows is kept. A file hop — finish one flow, start the next on the same
//! route, ask for the next completion — costs two heap operations and the
//! solver's route match, and touches no link list: the solver defers the
//! finished flow's unlink until link state is read, and the revive finds
//! it still in place.
//!
//! Each flow carries a caller tag (what the transfer is for), handed back
//! by [`NetSim::finish_flow`] and listed by [`NetSim::flows`], so the owner
//! keeps no flow map of its own.

use gridsched_des::{SimDuration, SimTime};
use gridsched_telemetry::{Counter, Histogram, Telemetry};
use gridsched_topology::EdgeId;

use crate::fair::MaxMinSolver;

/// Identifier of an active (or completed) flow.
///
/// Ordered by creation: a later flow sorts after every earlier one, even
/// when it reuses a lower slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowId {
    /// Creation ordinal, unique over the engine's lifetime.
    ord: u64,
    /// The flow's solver slot, which is also its index in the engine's
    /// slot tables; reused once the flow is gone.
    slot: u32,
}

impl FlowId {
    /// The flow's creation ordinal, a deterministic run-stable word (used
    /// by the engine's determinism digest to encode flow events).
    #[must_use]
    pub fn raw(self) -> u64 {
        self.ord
    }
}

/// `NetSim::pos` marker for a slot holding no active flow.
const NO_FLOW: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct FlowState<T> {
    id: FlowId,
    /// When the flow's bytes may begin to drain: start time plus latency.
    start: SimTime,
    /// When the flow's current rate took effect.
    epoch: SimTime,
    /// Bytes left at `max(epoch, start)`.
    bytes_at_epoch: f64,
    rate_bps: f64,
    /// Completion instant under the current rate (the heap key).
    eta: SimTime,
    tag: T,
}

impl<T> FlowState<T> {
    /// The instant the current rate starts draining bytes.
    fn drain_from(&self) -> SimTime {
        self.epoch.max(self.start)
    }

    /// Bytes not yet delivered at `t` (`t` no earlier than `epoch`).
    fn remaining_at(&self, t: SimTime) -> f64 {
        if self.rate_bps.is_infinite() && t >= self.start {
            // Co-located endpoints: the payload arrives with the latency
            // edge itself.
            return 0.0;
        }
        let from = self.drain_from();
        if t <= from {
            return self.bytes_at_epoch;
        }
        (self.bytes_at_epoch - self.rate_bps * (t - from).as_secs()).max(0.0)
    }

    /// Completion instant if the rate never changes again.
    fn completion(&self) -> SimTime {
        if self.rate_bps.is_infinite() {
            return self.start;
        }
        if self.rate_bps <= 0.0 {
            // Stalled by a down link on the route: no reachable completion.
            return SimTime::FAR_FUTURE;
        }
        self.drain_from() + SimDuration::from_secs(self.bytes_at_epoch / self.rate_bps)
    }
}

/// `(eta, id)` order on heap entries, with plain float compares: ETAs are
/// never NaN, and ids are unique, so creation ordinals break every tie.
#[inline]
fn earlier(a: (SimTime, FlowId), b: (SimTime, FlowId)) -> bool {
    let (x, y) = (a.0.as_secs(), b.0.as_secs());
    x < y || (x == y && a.1.ord < b.1.ord)
}

/// Indexed binary min-heap of active flows keyed by `(eta, id)`; `at[slot]`
/// is the heap index of the flow in solver slot `slot`.
#[derive(Debug, Default)]
struct EtaHeap {
    entries: Vec<(SimTime, FlowId)>,
    at: Vec<u32>,
}

impl EtaHeap {
    fn peek(&self) -> Option<(SimTime, FlowId)> {
        self.entries.first().copied()
    }

    fn push(&mut self, eta: SimTime, id: FlowId) {
        let s = id.slot as usize;
        if s >= self.at.len() {
            self.at.resize(s + 1, 0);
        }
        self.entries.push((eta, id));
        self.sift_up(self.entries.len() - 1);
    }

    /// Re-keys `id`'s entry to `eta`.
    fn update(&mut self, id: FlowId, eta: SimTime) {
        let i = self.at[id.slot as usize] as usize;
        let old = self.entries[i].0;
        self.entries[i].0 = eta;
        if eta.as_secs() < old.as_secs() {
            self.sift_up(i);
        } else {
            self.sift_down(i);
        }
    }

    fn remove(&mut self, id: FlowId) {
        let i = self.at[id.slot as usize] as usize;
        let last = self.entries.pop().expect("flow is filed");
        if i < self.entries.len() {
            let old = self.entries[i];
            self.entries[i] = last;
            if earlier(last, old) {
                self.sift_up(i);
            } else {
                self.sift_down(i);
            }
        }
    }

    fn sift_up(&mut self, mut i: usize) {
        let entry = self.entries[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            if !earlier(entry, self.entries[parent]) {
                break;
            }
            self.place(i, self.entries[parent]);
            i = parent;
        }
        self.place(i, entry);
    }

    fn sift_down(&mut self, mut i: usize) {
        let entry = self.entries[i];
        let n = self.entries.len();
        loop {
            let mut child = 2 * i + 1;
            if child >= n {
                break;
            }
            if child + 1 < n && earlier(self.entries[child + 1], self.entries[child]) {
                child += 1;
            }
            if !earlier(self.entries[child], entry) {
                break;
            }
            self.place(i, self.entries[child]);
            i = child;
        }
        self.place(i, entry);
    }

    fn place(&mut self, i: usize, entry: (SimTime, FlowId)) {
        self.at[entry.1.slot as usize] = i as u32;
        self.entries[i] = entry;
    }
}

/// Fluid network simulator with max–min fair bandwidth sharing. Every
/// active flow carries a caller tag of type `T`.
///
/// Rates are recomputed **lazily**: flow mutations only make a solve due,
/// and the recompute runs at the next point the rates are observable — a
/// clock move past the mutation instant, or a
/// [`NetSim::next_completion`] / [`NetSim::rate_of`] query. Same-instant
/// mutation bursts (a batch finishing one fetch and starting the next)
/// therefore cost one recompute instead of one per mutation: rates are a
/// pure function of the flow set and the link states, neither of which
/// changes while the clock stands still, and a rate read back at the
/// burst's instant takes effect from that instant. When the burst
/// replaced each finished flow with one on the same route, the route
/// multiset is unchanged too, and the solver skips the fill entirely (see
/// [`MaxMinSolver`]); the flows started in the burst filed their
/// completions at start.
///
/// Bytes drain per rate epoch, not per event (see the
/// [module docs](self)): the clock advance itself touches no flow.
///
/// **No hashing, no tree.** Active flows live in a dense array visited in
/// whatever order removals left it; a slot table indexed by the solver's
/// (dense, reused) slot finds a flow's position in O(1), and the id's
/// creation ordinal rejects stale ids. The visit order cannot change any
/// result: the solver's rates do not depend on it, each flow's epoch is
/// independent of the others, and the earliest completion is the minimum
/// over the total order `(eta, id)` that the heap keeps. Only the running
/// [`NetSim::bytes_delivered`] total sums in a different order.
///
/// See the [crate docs](crate) for an end-to-end example.
#[derive(Debug)]
pub struct NetSim<T> {
    /// Active flows, dense, in no particular order.
    flows: Vec<FlowState<T>>,
    /// Per solver slot: the position of its flow in `flows`, or
    /// [`NO_FLOW`].
    pos: Vec<u32>,
    /// Every active flow keyed by its cached completion instant.
    etas: EtaHeap,
    next_ord: u64,
    last_update: SimTime,
    /// Incremental max–min solver: flows register on start and deregister
    /// on finish/cancel, so a recompute rebuilds nothing. Its "solve due"
    /// state is the engine's dirty flag.
    solver: MaxMinSolver,
    /// Bytes drained so far, booked when a flow is re-based, cancelled
    /// or finished (stats).
    bytes_delivered: f64,
    /// Number of flows finished (stats).
    flows_finished: u64,
    /// `net.solver.recomputes` — max–min solves actually run; skipped
    /// same-route swaps are not counted (inert unless telemetry is
    /// attached).
    recomputes: Counter,
    /// `net.solver.touched_flows` — flows visited per solve run.
    touched_flows: Histogram,
}

impl<T> NetSim<T> {
    /// Creates an engine over links with the given capacities
    /// (bytes/second), indexed by [`EdgeId::index`].
    ///
    /// # Panics
    ///
    /// Panics if any capacity is non-positive or non-finite.
    #[must_use]
    pub fn new(capacities: Vec<f64>) -> Self {
        NetSim {
            solver: MaxMinSolver::new(capacities),
            flows: Vec::new(),
            pos: Vec::new(),
            etas: EtaHeap::default(),
            next_ord: 0,
            last_update: SimTime::ZERO,
            bytes_delivered: 0.0,
            flows_finished: 0,
            recomputes: Counter::disabled(),
            touched_flows: Histogram::disabled(),
        }
    }
    /// Installs hot-path instrument handles (recompute count, flows
    /// touched per recompute). Recording through inert handles — the
    /// default — is a no-op; attaching never changes any rate or ETA.
    pub fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        self.recomputes = telemetry.counter("net.solver.recomputes");
        self.touched_flows = telemetry.histogram("net.solver.touched_flows");
    }

    /// Number of links crossed by at least one active flow.
    #[must_use]
    pub fn busy_links(&mut self) -> usize {
        self.solver.busy_links()
    }

    /// Total number of links in the topology.
    #[must_use]
    pub fn link_count(&self) -> usize {
        self.solver.link_count()
    }

    /// Marks `link` down at `now`: every flow crossing it stalls at rate
    /// `0.0` (its ETA becomes unreachable — it never surfaces from
    /// [`NetSim::next_completion`]) and stops consuming capacity on the
    /// rest of its route. Bytes moved before the outage stay moved: the
    /// rate change re-bases each crossing flow at `now`.
    ///
    /// # Panics
    ///
    /// Panics if `now` is before the engine clock, the link is unknown, or
    /// the link is already down.
    pub fn set_link_down(&mut self, now: SimTime, link: EdgeId) {
        self.advance_to(now);
        self.solver.set_link_down(link.index());
    }

    /// Brings `link` back up at `now`; flows stalled solely by it resume
    /// draining from their surviving byte counts.
    ///
    /// # Panics
    ///
    /// Panics if `now` is before the engine clock, the link is unknown, or
    /// the link is not down.
    pub fn set_link_up(&mut self, now: SimTime, link: EdgeId) {
        self.advance_to(now);
        self.solver.set_link_up(link.index());
    }

    /// Sets `link`'s effective capacity to `base × factor` at `now` (a
    /// degraded-bandwidth window; `1.0` restores the configured capacity
    /// exactly).
    ///
    /// # Panics
    ///
    /// Panics if `now` is before the engine clock, the link is unknown, or
    /// `factor` is outside `(0, 1]`.
    pub fn set_link_capacity_factor(&mut self, now: SimTime, link: EdgeId, factor: f64) {
        self.advance_to(now);
        self.solver.set_link_capacity_factor(link.index(), factor);
    }

    /// Number of links currently down.
    #[must_use]
    pub fn links_down(&self) -> usize {
        self.solver.links_down()
    }

    /// Whether `link` is currently down.
    #[must_use]
    pub fn is_link_down(&self, link: EdgeId) -> bool {
        self.solver.is_link_down(link.index())
    }

    /// Whether every link on `route` is up — the reachability test the
    /// transfer-resilience layer uses when picking a failover source.
    #[must_use]
    pub fn route_up(&self, route: &[EdgeId]) -> bool {
        route.iter().all(|e| !self.solver.is_link_down(e.index()))
    }

    /// Whether an active flow is stalled by a down link on its route.
    /// `None` if the flow is unknown/already done.
    #[must_use]
    pub fn flow_stalled(&self, id: FlowId) -> Option<bool> {
        self.position(id).map(|_| self.solver.flow_stalled(id.slot))
    }

    /// An optimistic fair-share rate estimate over `route` — the minimum
    /// over its links of `capacity / non-stalled crossing flows`. A lower
    /// bound on the max–min rate any flow on that route receives, so
    /// `bytes / estimate` upper-bounds its transfer time: the basis the
    /// transfer guard uses to size timeouts. `+∞` for an empty route.
    #[must_use]
    pub fn fair_share_estimate(&mut self, route: &[EdgeId]) -> f64 {
        self.solver
            .fair_share_estimate(route.iter().map(|e| e.index()))
    }

    /// Starts a flow of `bytes` bytes across `route` with propagation
    /// latency `latency_s`, at time `now`, carrying `tag`. Returns its id.
    ///
    /// An empty route means both endpoints are co-located: the flow
    /// completes after `latency_s` alone.
    ///
    /// # Panics
    ///
    /// Panics if `now` is before the engine's last update (time must be
    /// driven monotonically), `bytes` is negative/NaN, or the route
    /// references unknown links.
    pub fn start_flow(
        &mut self,
        now: SimTime,
        route: &[EdgeId],
        bytes: f64,
        latency_s: f64,
        tag: T,
    ) -> FlowId {
        assert!(bytes >= 0.0 && bytes.is_finite(), "bad flow size: {bytes}");
        assert!(
            latency_s >= 0.0 && latency_s.is_finite(),
            "bad latency: {latency_s}"
        );
        self.advance_to(now);
        let slot = self.solver.add_flow(route.iter().map(|e| e.index()));
        let id = FlowId {
            ord: self.next_ord,
            slot,
        };
        self.next_ord += 1;
        let s = slot as usize;
        if s >= self.pos.len() {
            self.pos.resize(s + 1, NO_FLOW);
        }
        debug_assert_eq!(self.pos[s], NO_FLOW, "solver handed out a live slot");
        self.pos[s] = self.flows.len() as u32;
        // A revived slot's rate is still exact, so its completion is real.
        // Any other slot reads rate 0 (no completion) until the solve its
        // registration made due; that solve runs at this instant, before
        // anything drains, and re-reads every flow.
        let mut flow = FlowState {
            id,
            start: now + SimDuration::from_secs(latency_s),
            epoch: now,
            bytes_at_epoch: bytes,
            rate_bps: self.solver.rate(slot),
            eta: SimTime::FAR_FUTURE,
            tag,
        };
        flow.eta = flow.completion();
        self.etas.push(flow.eta, id);
        self.flows.push(flow);
        id
    }

    /// Cancels an active flow (e.g. a replicated task got cancelled while
    /// its input transfer was in flight). Returns the bytes that had *not*
    /// yet been delivered, or `None` if the flow was unknown/already done.
    pub fn cancel_flow(&mut self, now: SimTime, id: FlowId) -> Option<f64> {
        self.advance_to(now);
        let state = self.remove(id)?;
        let left = state.remaining_at(now);
        self.bytes_delivered += state.bytes_at_epoch - left;
        Some(left)
    }

    /// Marks the flow finished at `now` and returns its tag. The engine
    /// checks that the flow is indeed (numerically) drained — the owner
    /// must call this exactly at the instant reported by
    /// [`NetSim::next_completion`].
    ///
    /// # Panics
    ///
    /// Panics if the flow is unknown or demonstrably unfinished (more than
    /// `1e-3` bytes or `1e-9` s of latency left).
    pub fn finish_flow(&mut self, now: SimTime, id: FlowId) -> T {
        self.advance_to(now);
        let state = self
            .remove(id)
            .unwrap_or_else(|| panic!("finish_flow: unknown flow {id:?}"));
        let latency_left = if now < state.start {
            (state.start - now).as_secs()
        } else {
            0.0
        };
        let slack = state.remaining_at(now);
        assert!(
            latency_left <= 1e-9 && slack <= 1e-3,
            "finish_flow called on unfinished flow {id:?}: {slack} bytes / {latency_left}s latency left",
        );
        // The drain since the flow's epoch, plus the numerically-lost tail.
        self.bytes_delivered += state.bytes_at_epoch;
        self.flows_finished += 1;
        state.tag
    }

    /// The earliest `(time, flow)` completion among active flows, assuming
    /// no further changes. `None` when no flows are active.
    pub fn next_completion(&mut self) -> Option<(SimTime, FlowId)> {
        self.recompute_rates();
        // Stalled flows (down link on the route) file at `FAR_FUTURE`, after
        // every reachable completion: they wait for recovery, cancellation,
        // or a transfer-guard timeout, never for a completion event.
        self.etas
            .peek()
            .filter(|&(eta, _)| eta < SimTime::FAR_FUTURE)
    }

    /// Current max–min rate of a flow in bytes/second, if active.
    pub fn rate_of(&mut self, id: FlowId) -> Option<f64> {
        self.recompute_rates();
        self.position(id).map(|p| self.flows[p].rate_bps)
    }

    /// The tag of an active flow, `None` if the flow is unknown/already
    /// done.
    #[must_use]
    pub fn tag(&self, id: FlowId) -> Option<&T> {
        self.position(id).map(|p| &self.flows[p].tag)
    }

    /// The active flows and their tags, in no particular order.
    pub fn flows(&self) -> impl Iterator<Item = (FlowId, &T)> {
        self.flows.iter().map(|f| (f.id, &f.tag))
    }

    /// Position of an active flow in `flows`; `None` for an id whose flow
    /// is gone (its slot empty, or reused by a later flow).
    fn position(&self, id: FlowId) -> Option<usize> {
        let p = *self.pos.get(id.slot as usize)?;
        (p != NO_FLOW && self.flows[p as usize].id == id).then_some(p as usize)
    }

    /// Unlinks an active flow from the table, the heap and the solver.
    fn remove(&mut self, id: FlowId) -> Option<FlowState<T>> {
        let p = self.position(id)?;
        self.pos[id.slot as usize] = NO_FLOW;
        let state = self.flows.swap_remove(p);
        if let Some(moved) = self.flows.get(p) {
            self.pos[moved.id.slot as usize] = p as u32;
        }
        self.etas.remove(id);
        self.solver.remove_flow(id.slot);
        Some(state)
    }

    /// Number of active flows.
    #[must_use]
    pub fn active_flows(&self) -> usize {
        self.flows.len()
    }

    /// Total bytes drained so far: every finished flow's bytes, the
    /// delivered part of every cancelled flow, and what active flows
    /// drained before their last rate change.
    #[must_use]
    pub fn bytes_delivered(&self) -> f64 {
        self.bytes_delivered
    }

    /// Number of finished flows.
    #[must_use]
    pub fn flows_finished(&self) -> u64 {
        self.flows_finished
    }

    /// Moves the engine clock to `now`. No flow drains here; rates
    /// deferred by a same-instant mutation burst are read back first, so
    /// they take effect at the burst's instant exactly as an eager
    /// recompute would have applied them.
    ///
    /// # Panics
    ///
    /// Panics if `now` is in the past relative to the engine clock.
    fn advance_to(&mut self, now: SimTime) {
        assert!(
            now >= self.last_update,
            "NetSim driven backwards: now={now:?} last={:?}",
            self.last_update
        );
        if now > self.last_update {
            self.recompute_rates();
        }
        self.last_update = now;
    }

    /// Recomputes the max–min fair allocation for the current flow set if
    /// a solve is due, without allocating, and re-bases every flow whose
    /// rate changed. The solver skips the fill when the flow set only
    /// swapped finished flows for new ones on the same routes; then no
    /// flow is read (the new ones filed their completions at start). With
    /// no active flow nothing is solved: parked slots stay revivable.
    fn recompute_rates(&mut self) {
        if !self.flows.is_empty() && self.solver.solve() {
            self.recomputes.incr();
            self.touched_flows.record(self.flows.len() as u64);
            for p in 0..self.flows.len() {
                self.read_rate(p);
            }
        }
    }

    /// Reads back the solved rate of the flow at `p`. A changed rate
    /// re-bases the flow at the engine clock and re-files its completion;
    /// a bit-identical one leaves the flow untouched.
    fn read_rate(&mut self, p: usize) {
        let now = self.last_update;
        let f = &mut self.flows[p];
        let rate = self.solver.rate(f.id.slot);
        if rate.to_bits() == f.rate_bps.to_bits() {
            return;
        }
        let left = f.remaining_at(now);
        self.bytes_delivered += f.bytes_at_epoch - left;
        f.bytes_at_epoch = left;
        f.epoch = now;
        f.rate_bps = rate;
        f.eta = f.completion();
        self.etas.update(f.id, f.eta);
    }

    /// The cached completion instant of an active flow.
    #[cfg(test)]
    pub(crate) fn eta_of(&self, id: FlowId) -> Option<SimTime> {
        self.position(id).map(|p| self.flows[p].eta)
    }

    /// Checks the heap exactly: every entry satisfies the heap order and
    /// is indexed from its slot, the entries are the active flows' cached
    /// `(eta, id)` pairs, and the top is the minimum of a linear scan.
    #[cfg(test)]
    pub(crate) fn assert_heap_consistent(&self) {
        let entries = &self.etas.entries;
        assert_eq!(entries.len(), self.flows.len());
        for (i, &(eta, id)) in entries.iter().enumerate() {
            assert_eq!(
                self.etas.at[id.slot as usize] as usize, i,
                "heap index of {id:?}"
            );
            assert_eq!(self.eta_of(id), Some(eta), "heap key of {id:?}");
            if i > 0 {
                assert!(entries[(i - 1) / 2] <= entries[i], "heap order at {i}");
            }
        }
        let scan = self.flows.iter().map(|f| (f.eta, f.id)).min();
        assert_eq!(self.etas.peek(), scan, "heap top vs linear scan");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn e(i: u32) -> EdgeId {
        EdgeId(i)
    }

    #[test]
    fn single_flow_latency_plus_transfer() {
        let mut net = NetSim::new(vec![10.0]);
        let f = net.start_flow(SimTime::ZERO, &[e(0)], 100.0, 2.0, ());
        let (eta, id) = net.next_completion().unwrap();
        assert_eq!(id, f);
        assert!((eta.as_secs() - 12.0).abs() < 1e-9);
        net.finish_flow(eta, f);
        assert_eq!(net.active_flows(), 0);
        assert_eq!(net.flows_finished(), 1);
        assert!((net.bytes_delivered() - 100.0).abs() < 1e-6);
    }

    #[test]
    fn zero_byte_flow_is_pure_latency() {
        let mut net = NetSim::new(vec![10.0]);
        let f = net.start_flow(SimTime::ZERO, &[e(0)], 0.0, 1.5, ());
        let (eta, _) = net.next_completion().unwrap();
        assert!((eta.as_secs() - 1.5).abs() < 1e-12);
        net.finish_flow(eta, f);
    }

    #[test]
    fn empty_route_completes_after_latency() {
        let mut net = NetSim::new(vec![10.0]);
        let f = net.start_flow(SimTime::ZERO, &[], 1e9, 0.5, ());
        let (eta, _) = net.next_completion().unwrap();
        assert!((eta.as_secs() - 0.5).abs() < 1e-12);
        net.finish_flow(eta, f);
    }

    #[test]
    fn two_flows_slow_each_other() {
        // Link 10 B/s. Flow A: 100 bytes at t=0. Flow B: 100 bytes at t=0.
        // Both get 5 B/s → finish at t=20 (no latency).
        let mut net = NetSim::new(vec![10.0]);
        let _a = net.start_flow(SimTime::ZERO, &[e(0)], 100.0, 0.0, ());
        let _b = net.start_flow(SimTime::ZERO, &[e(0)], 100.0, 0.0, ());
        let (eta, first) = net.next_completion().unwrap();
        assert!((eta.as_secs() - 20.0).abs() < 1e-9);
        net.finish_flow(eta, first);
        // The survivor now gets the full link and finishes at the same time
        // (both had identical progress).
        let (eta2, second) = net.next_completion().unwrap();
        assert!((eta2.as_secs() - 20.0).abs() < 1e-9);
        assert_ne!(first, second);
        net.finish_flow(eta2, second);
    }

    #[test]
    fn late_arrival_shares_bandwidth() {
        // Link 10 B/s. A starts at t=0 with 100 bytes (eta 10). B arrives at
        // t=5 with 100 bytes; from then on both run at 5 B/s.
        // A has 50 bytes left → finishes at t=15. B finishes at 5 + latency
        // 0 + (50/5 then 50/10) — after A leaves, B speeds back up:
        // at t=15 B has 100-50=50 left, full rate 10 → t=20.
        let mut net = NetSim::new(vec![10.0]);
        let a = net.start_flow(SimTime::ZERO, &[e(0)], 100.0, 0.0, ());
        let b = net.start_flow(t(5.0), &[e(0)], 100.0, 0.0, ());
        let (eta_a, id) = net.next_completion().unwrap();
        assert_eq!(id, a);
        assert!((eta_a.as_secs() - 15.0).abs() < 1e-9, "eta_a={eta_a}");
        net.finish_flow(eta_a, a);
        let (eta_b, id) = net.next_completion().unwrap();
        assert_eq!(id, b);
        assert!((eta_b.as_secs() - 20.0).abs() < 1e-9, "eta_b={eta_b}");
        net.finish_flow(eta_b, b);
        assert!((net.bytes_delivered() - 200.0).abs() < 1e-6);
    }

    #[test]
    fn cancel_frees_bandwidth() {
        let mut net = NetSim::new(vec![10.0]);
        let a = net.start_flow(SimTime::ZERO, &[e(0)], 100.0, 0.0, ());
        let b = net.start_flow(SimTime::ZERO, &[e(0)], 100.0, 0.0, ());
        // At t=4 cancel B (it delivered 20 of its bytes).
        let left = net.cancel_flow(t(4.0), b).unwrap();
        assert!((left - 80.0).abs() < 1e-9);
        // A has 80 left at rate 10 → eta t=12.
        let (eta, id) = net.next_completion().unwrap();
        assert_eq!(id, a);
        assert!((eta.as_secs() - 12.0).abs() < 1e-9);
        assert_eq!(net.cancel_flow(t(12.0), b), None, "double cancel");
    }

    #[test]
    fn multi_link_route_bottleneck() {
        // Route over links of 10 and 4 → rate 4.
        let mut net = NetSim::new(vec![10.0, 4.0]);
        let f = net.start_flow(SimTime::ZERO, &[e(0), e(1)], 40.0, 0.0, ());
        let (eta, _) = net.next_completion().unwrap();
        assert!((eta.as_secs() - 10.0).abs() < 1e-9);
        net.finish_flow(eta, f);
    }

    #[test]
    fn latency_phase_does_not_drain_bytes() {
        let mut net = NetSim::new(vec![10.0]);
        let f = net.start_flow(SimTime::ZERO, &[e(0)], 100.0, 5.0, ());
        // Probe state mid-latency by starting/cancelling another flow.
        let probe = net.start_flow(t(3.0), &[e(0)], 1.0, 0.0, ());
        net.cancel_flow(t(3.5), probe);
        let (eta, _) = net.next_completion().unwrap();
        // 5s latency, plus bytes drained at 5 B/s between 3.0 and 3.5 is
        // *not* true — latency phase: bytes untouched until t=5.
        // After t=5 the flow is alone at 10 B/s → eta = 15.
        assert!((eta.as_secs() - 15.0).abs() < 1e-9, "eta={eta}");
        net.finish_flow(eta, f);
    }

    #[test]
    #[should_panic(expected = "unfinished flow")]
    fn finish_early_panics() {
        let mut net = NetSim::new(vec![10.0]);
        let f = net.start_flow(SimTime::ZERO, &[e(0)], 100.0, 0.0, ());
        net.finish_flow(t(1.0), f);
    }

    #[test]
    #[should_panic(expected = "driven backwards")]
    fn time_backwards_panics() {
        let mut net = NetSim::new(vec![10.0]);
        let _ = net.start_flow(t(5.0), &[e(0)], 1.0, 0.0, ());
        let _ = net.start_flow(t(4.0), &[e(0)], 1.0, 0.0, ());
    }

    #[test]
    fn deterministic_tie_break_on_simultaneous_completion() {
        let mut net = NetSim::new(vec![10.0]);
        let a = net.start_flow(SimTime::ZERO, &[e(0)], 50.0, 0.0, ());
        let _b = net.start_flow(SimTime::ZERO, &[e(0)], 50.0, 0.0, ());
        let (_, id) = net.next_completion().unwrap();
        assert_eq!(id, a, "lowest flow id wins ties");
    }

    #[test]
    fn tie_break_follows_creation_not_table_position() {
        let mut net = NetSim::new(vec![10.0]);
        let a = net.start_flow(SimTime::ZERO, &[e(0)], 50.0, 0.0, ());
        let b = net.start_flow(SimTime::ZERO, &[e(0)], 50.0, 0.0, ());
        let c = net.start_flow(SimTime::ZERO, &[e(0)], 50.0, 0.0, ());
        // Removing `a` moves `c` ahead of `b` in the dense table; `b` and
        // `c` still finish at the same instant, and `b` is older.
        net.cancel_flow(SimTime::ZERO, a);
        let (_, id) = net.next_completion().unwrap();
        assert_eq!(id, b);
        assert_ne!(id, c);
        // Advancing the clock without changing the flow set (a stale
        // cancel) leaves the filed completions as they are.
        assert_eq!(net.cancel_flow(t(1.0), a), None);
        let (_, id) = net.next_completion().unwrap();
        assert_eq!(id, b);
    }

    #[test]
    fn flow_ids_order_by_creation_across_slot_reuse() {
        let mut net = NetSim::new(vec![10.0, 10.0]);
        let a = net.start_flow(SimTime::ZERO, &[e(0)], 100.0, 0.0, 'a');
        let b = net.start_flow(SimTime::ZERO, &[e(1)], 100.0, 0.0, 'b');
        // Solve so `a`'s slot is released for reuse, then free it.
        assert!(net.next_completion().is_some());
        assert_eq!(net.cancel_flow(t(1.0), a), Some(90.0));
        assert!(net.next_completion().is_some());
        // `c` reuses `a`'s (lower) slot on a route `a` never had.
        let c = net.start_flow(t(1.0), &[e(1)], 100.0, 0.0, 'c');
        assert_eq!(c.slot, a.slot);
        assert!(c.slot < b.slot);
        assert_eq!([a.raw(), b.raw(), c.raw()], [0, 1, 2]);
        assert!(a < b && b < c, "ids sort by creation, not by slot");
        let mut live: Vec<FlowId> = net.flows().map(|(id, _)| id).collect();
        live.sort_unstable();
        assert_eq!(live, [b, c]);
        // The stale id no longer names anything, though its slot is live.
        assert_eq!(net.tag(a), None);
        assert_eq!(net.cancel_flow(t(1.0), a), None);
        assert_eq!(net.tag(c), Some(&'c'));
        assert_eq!(net.tag(b), Some(&'b'));
    }

    #[test]
    fn disjoint_churn_leaves_an_unrelated_eta_bit_identical() {
        // `a` runs alone on link 0 while flows come and go on links 1 and
        // 2: new routes force full solves, same-route swaps skip them, and
        // neither may re-base `a` (its rate never changes).
        let mut net = NetSim::new(vec![3.0, 7.0, 5.0]);
        let a = net.start_flow(SimTime::ZERO, &[e(0)], 100.0, 0.25, ());
        assert_eq!(net.next_completion().map(|c| c.1), Some(a));
        let eta_a = net.eta_of(a).unwrap();
        let mut now = t(1.1);
        let routes: [&[EdgeId]; 4] = [&[e(1)], &[e(1), e(2)], &[e(1), e(2)], &[e(2)]];
        for (i, route) in routes.into_iter().enumerate() {
            let f = net.start_flow(now, route, 10.0 + i as f64, 0.0, ());
            assert!(net.next_completion().is_some());
            assert_eq!(
                net.eta_of(a).map(|t| t.as_secs().to_bits()),
                Some(eta_a.as_secs().to_bits())
            );
            now = net.eta_of(f).unwrap();
            net.finish_flow(now, f);
            net.assert_heap_consistent();
        }
        assert_eq!(net.next_completion(), Some((eta_a, a)));
        net.finish_flow(eta_a, a);
        assert!((net.bytes_delivered() - 146.0).abs() < 1e-9);
    }

    #[test]
    fn same_route_successor_files_its_completion_at_start() {
        let mut net = NetSim::new(vec![10.0, 30.0]);
        let a = net.start_flow(SimTime::ZERO, &[e(0), e(1)], 100.0, 0.0, ());
        let _b = net.start_flow(SimTime::ZERO, &[e(1)], 1_000.0, 0.0, ());
        let (t_a, id) = net.next_completion().unwrap();
        assert_eq!(id, a);
        net.finish_flow(t_a, a);
        let c = net.start_flow(t_a, &[e(0), e(1)], 50.0, 0.5, ());
        // The revived slot's rate is exact: the completion is real before
        // any solve or readback.
        let eta_c = net.eta_of(c).unwrap();
        assert!((eta_c.as_secs() - (t_a.as_secs() + 0.5 + 5.0)).abs() < 1e-9);
        net.assert_heap_consistent();
        assert_eq!(net.next_completion(), Some((eta_c, c)));
        assert_eq!(net.eta_of(c), Some(eta_c));
        net.assert_heap_consistent();
    }

    #[test]
    fn link_reads_after_an_unreplaced_finish_match_a_fresh_engine() {
        let caps = vec![10.0, 20.0, 30.0];
        let routes: [&[EdgeId]; 3] = [&[e(0), e(2)], &[e(1), e(2)], &[e(2)]];
        let bytes = [10.0, 100.0, 100.0];
        // The first flow, alone on link 0, finishes and is not replaced;
        // the twin only ever saw the surviving flows, solved afresh. Each
        // read runs on a new pair, so it is the first read after the finish.
        let pair = || {
            let mut net = NetSim::new(caps.clone());
            for (route, b) in routes.into_iter().zip(bytes) {
                net.start_flow(SimTime::ZERO, route, b, 0.0, ());
            }
            net.set_link_down(t(0.5), e(1));
            let (at, done) = net.next_completion().unwrap();
            assert_eq!(done.raw(), 0);
            net.finish_flow(at, done);
            let mut twin = NetSim::new(caps.clone());
            for (route, b) in routes.into_iter().zip(bytes).skip(1) {
                twin.start_flow(SimTime::ZERO, route, b, 0.0, ());
            }
            twin.set_link_down(at, e(1));
            (net, twin)
        };
        let (net, twin) = pair();
        assert_eq!(net.active_flows(), twin.active_flows());
        let (mut net, mut twin) = pair();
        assert_eq!(net.busy_links(), twin.busy_links());
        assert_eq!(net.busy_links(), 2);
        for route in [&[e(0)][..], &[e(1)], &[e(2)], &[e(0), e(2)], &[e(1), e(2)]] {
            let (mut net, mut twin) = pair();
            assert_eq!(
                net.fair_share_estimate(route).to_bits(),
                twin.fair_share_estimate(route).to_bits(),
                "estimate over {route:?}"
            );
        }
    }

    #[test]
    fn outage_stalls_flow_and_preserves_partial_bytes() {
        let mut net = NetSim::new(vec![10.0]);
        let f = net.start_flow(SimTime::ZERO, &[e(0)], 100.0, 0.0, ());
        // 40 bytes delivered by t=4, then the link fails.
        net.set_link_down(t(4.0), e(0));
        assert_eq!(net.links_down(), 1);
        assert!(net.is_link_down(e(0)));
        assert!(!net.route_up(&[e(0)]));
        assert_eq!(net.flow_stalled(f), Some(true));
        // A stalled flow has no reachable completion.
        assert_eq!(net.next_completion(), None);
        assert_eq!(net.rate_of(f), Some(0.0));
        // Recovery at t=30: 60 bytes left at 10 B/s → eta t=36.
        net.set_link_up(t(30.0), e(0));
        assert_eq!(net.flow_stalled(f), Some(false));
        let (eta, id) = net.next_completion().unwrap();
        assert_eq!(id, f);
        assert!((eta.as_secs() - 36.0).abs() < 1e-9, "eta={eta}");
        net.finish_flow(eta, f);
        assert!((net.bytes_delivered() - 100.0).abs() < 1e-6);
    }

    #[test]
    fn cancel_during_outage_returns_undelivered_bytes() {
        // The resume primitive: cancel a stalled flow and restart only the
        // remaining bytes on another route.
        let mut net = NetSim::new(vec![10.0, 10.0]);
        let f = net.start_flow(SimTime::ZERO, &[e(0)], 100.0, 0.0, ());
        net.set_link_down(t(4.0), e(0));
        let left = net.cancel_flow(t(9.0), f).unwrap();
        assert!((left - 60.0).abs() < 1e-9, "left={left}");
        // Resume on the other link at the remaining size.
        assert!(net.route_up(&[e(1)]));
        let r = net.start_flow(t(9.0), &[e(1)], left, 0.0, ());
        let (eta, id) = net.next_completion().unwrap();
        assert_eq!(id, r);
        assert!((eta.as_secs() - 15.0).abs() < 1e-9, "eta={eta}");
        net.finish_flow(eta, r);
        assert!((net.bytes_delivered() - 100.0).abs() < 1e-6);
    }

    #[test]
    fn degraded_window_slows_then_restores() {
        let mut net = NetSim::new(vec![10.0]);
        let f = net.start_flow(SimTime::ZERO, &[e(0)], 100.0, 0.0, ());
        // Half capacity from t=2: 20 bytes done, 80 left at 5 B/s.
        net.set_link_capacity_factor(t(2.0), e(0), 0.5);
        let (eta, _) = net.next_completion().unwrap();
        assert!((eta.as_secs() - 18.0).abs() < 1e-9, "eta={eta}");
        // Restore at t=10: 40 more drained (5 B/s × 8 s), 40 left at 10.
        net.set_link_capacity_factor(t(10.0), e(0), 1.0);
        let (eta, _) = net.next_completion().unwrap();
        assert!((eta.as_secs() - 14.0).abs() < 1e-9, "eta={eta}");
        net.finish_flow(eta, f);
        assert!((net.bytes_delivered() - 100.0).abs() < 1e-6);
    }

    #[test]
    fn unaffected_flows_complete_during_outage() {
        let mut net = NetSim::new(vec![10.0, 10.0]);
        let stalled = net.start_flow(SimTime::ZERO, &[e(0)], 100.0, 0.0, ());
        let healthy = net.start_flow(SimTime::ZERO, &[e(1)], 100.0, 0.0, ());
        net.set_link_down(SimTime::ZERO, e(0));
        let (eta, id) = net.next_completion().unwrap();
        assert_eq!(id, healthy);
        assert!((eta.as_secs() - 10.0).abs() < 1e-9);
        net.finish_flow(eta, healthy);
        assert_eq!(net.next_completion(), None);
        let left = net.cancel_flow(eta, stalled).unwrap();
        assert!((left - 100.0).abs() < 1e-9, "no bytes moved on a down link");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Random schedule of flow starts over a small topology; drive the
    /// engine to completion and check conservation: delivered bytes equal
    /// the sum of all flow sizes.
    fn drive_to_completion(caps: Vec<f64>, starts: Vec<(f64, Vec<usize>, f64, f64)>) -> (f64, f64) {
        let mut net = NetSim::new(caps.clone());
        let total: f64 = starts.iter().map(|s| s.2).sum();
        let mut pending = starts;
        pending.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        let mut now = SimTime::ZERO;
        let mut idx = 0;
        loop {
            let next_start = pending.get(idx).map(|s| SimTime::from_secs(s.0));
            let next_done = net.next_completion();
            match (next_start, next_done) {
                (Some(ts), Some((td, fid))) => {
                    if ts <= td {
                        let (at, route, bytes, lat) = pending[idx].clone();
                        let _ = at;
                        now = ts;
                        let route: Vec<EdgeId> = route.iter().map(|&l| EdgeId(l as u32)).collect();
                        net.start_flow(now, &route, bytes, lat, ());
                        idx += 1;
                    } else {
                        now = td;
                        net.finish_flow(now, fid);
                    }
                }
                (Some(ts), None) => {
                    let (_, route, bytes, lat) = pending[idx].clone();
                    now = ts;
                    let route: Vec<EdgeId> = route.iter().map(|&l| EdgeId(l as u32)).collect();
                    net.start_flow(now, &route, bytes, lat, ());
                    idx += 1;
                }
                (None, Some((td, fid))) => {
                    now = td;
                    net.finish_flow(now, fid);
                }
                (None, None) => break,
            }
        }
        let _ = now;
        (total, net.bytes_delivered())
    }

    #[allow(clippy::type_complexity)]
    fn arb_starts() -> impl Strategy<Value = (Vec<f64>, Vec<(f64, Vec<usize>, f64, f64)>)> {
        (2usize..5).prop_flat_map(|n_links| {
            let caps = proptest::collection::vec(1.0f64..50.0, n_links);
            let start = (
                0.0f64..100.0,
                proptest::collection::btree_set(0..n_links, 1..=n_links)
                    .prop_map(|s| s.into_iter().collect::<Vec<_>>()),
                0.0f64..500.0,
                0.0f64..2.0,
            )
                .prop_map(|(t, r, b, l)| (t, r, b, l));
            let starts = proptest::collection::vec(start, 1..10);
            (caps, starts)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn bytes_are_conserved((caps, starts) in arb_starts()) {
            let (total, delivered) = drive_to_completion(caps, starts);
            prop_assert!((total - delivered).abs() <= total * 1e-6 + 1e-3,
                "total={} delivered={}", total, delivered);
        }
    }
}
