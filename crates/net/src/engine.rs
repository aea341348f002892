//! Stateful fluid network engine.
//!
//! [`NetSim`] tracks the set of active flows and their max–min fair rates.
//! The owner drives it with wall-clock-style calls:
//!
//! 1. [`NetSim::start_flow`] / [`NetSim::cancel_flow`] / [`NetSim::finish_flow`]
//!    mutate the flow set (each call first moves the engine clock to
//!    `now`; rates are recomputed lazily at the next observation point),
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
//! completion alone. A flow that takes a held slot over (see *File hops*)
//! keeps the slot's rate and files its completion at once; any other flow
//! files no completion until the solve its start made due reads every
//! flow. A skipped solve therefore reads nothing, and no list of newly
//! started flows is kept.
//!
//! # File hops
//!
//! A batch stages its files one at a time over one route, so most flows
//! end at the instant the next begins. [`NetSim::finish_flow`] and
//! [`NetSim::cancel_flow`] therefore take the flow out of the table but
//! *hold* its solver slot and heap entry, and the next
//! [`NetSim::start_flow`] over the held slot's route takes the slot over:
//! the route multiset is unchanged, so the slot's rate is still exact. The
//! hop costs one heap re-key, and the solver is not called. The hold is
//! released (heap entry removed, slot unregistered) by a start over
//! another route, another finish or cancel, and any read of rates,
//! completions or link registration while a flow is active, a clock move
//! included. With no active flow nothing is solved, so the hold survives
//! reads and clock moves, and [`NetSim::next_completion`] never reports
//! it. A link change keeps the hold too: the held slot is still
//! registered, so a change on its route marks a solve due as it would
//! under an active flow. Should any change have made a solve due when the
//! slot is taken, that solve runs at the same instant, before anything
//! drains, and re-bases the successor like any flow whose rate moved.
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

/// Panics on a flow size or latency no flow can have.
fn check_flow_args(bytes: f64, latency_s: f64) {
    assert!(bytes >= 0.0 && bytes.is_finite(), "bad flow size: {bytes}");
    assert!(
        latency_s >= 0.0 && latency_s.is_finite(),
        "bad latency: {latency_s}"
    );
}

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

/// `(eta, id)` order on heap entries, in `SimTime`'s integer order (see
/// `gridsched_des::time`); ids are unique, so creation ordinals break
/// every tie.
#[inline]
fn earlier(a: (SimTime, FlowId), b: (SimTime, FlowId)) -> bool {
    (a.0, a.1.ord) < (b.0, b.1.ord)
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

    /// Replaces the entry of the flow in `id`'s slot with `(eta, id)`:
    /// a new completion for the same flow, or the entry of a successor
    /// that took the slot over.
    fn update(&mut self, eta: SimTime, id: FlowId) {
        let i = self.at[id.slot as usize] as usize;
        let old = self.entries[i];
        self.entries[i] = (eta, id);
        if earlier((eta, id), old) {
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
/// burst's instant takes effect from that instant. A hop whose successor
/// takes the finished flow's held slot over does not reach the solver at
/// all (see the [module docs](self)).
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
    /// The last finished or cancelled flow, while its solver slot and heap
    /// entry are held for a successor on the same route.
    held: Option<FlowId>,
    /// `net.solver.recomputes` — max–min solves actually run (inert unless
    /// telemetry is attached).
    recomputes: Counter,
    /// `net.solver.touched_flows` — flows visited per solve run.
    touched_flows: Histogram,
    /// `net.flow.continued` — starts that took a held slot over.
    continued: Counter,
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
            held: None,
            recomputes: Counter::disabled(),
            touched_flows: Histogram::disabled(),
            continued: Counter::disabled(),
        }
    }

    /// Installs hot-path instrument handles (recompute count, flows
    /// touched per recompute, held slots taken over). Recording through
    /// inert handles — the default — is a no-op; attaching never changes
    /// any rate or ETA.
    pub fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        self.recomputes = telemetry.counter("net.solver.recomputes");
        self.touched_flows = telemetry.histogram("net.solver.touched_flows");
        self.continued = telemetry.counter("net.flow.continued");
    }

    /// Number of links crossed by at least one active flow.
    #[must_use]
    pub fn busy_links(&mut self) -> usize {
        if self.flows.is_empty() {
            // Only a held slot can be registered.
            return 0;
        }
        self.release();
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
        let links = route.iter().map(|e| e.index());
        if self.flows.is_empty() {
            // Only a held slot can be registered; with no flow counted,
            // each link's share is its whole capacity.
            return links
                .map(|l| self.solver.capacity(l))
                .fold(f64::INFINITY, f64::min);
        }
        self.release();
        self.solver.fair_share_estimate(links)
    }

    /// Starts a flow of `bytes` bytes across `route` with propagation
    /// latency `latency_s`, at time `now`, carrying `tag`. Returns its id.
    ///
    /// An empty route means both endpoints are co-located: the flow
    /// completes after `latency_s` alone. Over the route of a held slot
    /// the flow takes that slot over (see the [module docs](self)).
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
        check_flow_args(bytes, latency_s);
        self.advance_to(now);
        let links = route.iter().map(|e| e.index());
        let taken = self
            .held
            .take_if(|done| self.solver.route_is(done.slot, links.clone()));
        let slot = match taken {
            Some(done) => {
                self.continued.incr();
                done.slot
            }
            None => {
                self.release();
                self.solver.add_flow(links)
            }
        };
        let s = slot as usize;
        if s >= self.pos.len() {
            self.pos.resize(s + 1, NO_FLOW);
        }
        debug_assert_eq!(self.pos[s], NO_FLOW, "solver handed out a live slot");
        let id = FlowId {
            ord: self.next_ord,
            slot,
        };
        self.next_ord += 1;
        // A taken slot keeps its rate, so its completion is filed now; a
        // fresh slot reads rate 0 (no completion) until the solve its
        // registration made due. Any due solve runs at this instant,
        // before anything drains, and re-bases the flow if its rate moved.
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
        if taken.is_some() {
            self.etas.update(flow.eta, id);
        } else {
            self.etas.push(flow.eta, id);
        }
        self.pos[s] = self.flows.len() as u32;
        self.flows.push(flow);
        id
    }

    /// Cancels an active flow (e.g. a replicated task got cancelled while
    /// its input transfer was in flight). Returns the bytes that had *not*
    /// yet been delivered, or `None` if the flow was unknown/already done.
    /// The flow's solver slot is held for a successor on its route.
    pub fn cancel_flow(&mut self, now: SimTime, id: FlowId) -> Option<f64> {
        self.advance_to(now);
        let state = self.unfile(id)?;
        let left = state.remaining_at(now);
        self.bytes_delivered += state.bytes_at_epoch - left;
        self.hold(id);
        Some(left)
    }

    /// Marks the flow finished at `now` and returns its tag. The engine
    /// checks that the flow is indeed (numerically) drained — the owner
    /// must call this exactly at the instant reported by
    /// [`NetSim::next_completion`]. The flow's solver slot is held for a
    /// successor on its route (see the [module docs](self)).
    ///
    /// # Panics
    ///
    /// Panics if the flow is unknown or demonstrably unfinished (more than
    /// `1e-3` bytes or `1e-9` s of latency left).
    pub fn finish_flow(&mut self, now: SimTime, id: FlowId) -> T {
        self.advance_to(now);
        let state = self
            .unfile(id)
            .unwrap_or_else(|| panic!("finish_flow: unknown flow {id:?}"));
        let latency_left = if now < state.start {
            (state.start - now).as_secs()
        } else {
            0.0
        };
        let slack = state.remaining_at(now);
        assert!(
            latency_left <= 1e-9 && slack <= 1e-3,
            "finish_flow called on unfinished flow {:?}: {slack} bytes / {latency_left}s latency left",
            state.id,
        );
        // The drain since the flow's epoch, plus the numerically-lost tail.
        self.bytes_delivered += state.bytes_at_epoch;
        self.flows_finished += 1;
        self.hold(id);
        state.tag
    }

    /// The earliest `(time, flow)` completion among active flows, assuming
    /// no further changes. `None` when no flows are active.
    pub fn next_completion(&mut self) -> Option<(SimTime, FlowId)> {
        self.recompute_rates();
        if self.flows.is_empty() {
            // The heap may still file a held slot.
            return None;
        }
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

    /// Holds the slot of `id`, a flow just taken out of the table, for a
    /// successor on its route, releasing any earlier hold.
    fn hold(&mut self, id: FlowId) {
        self.release();
        self.held = Some(id);
    }

    /// Releases the held slot, if any: removes its heap entry and
    /// unregisters it from the solver.
    fn release(&mut self) {
        if let Some(done) = self.held.take() {
            self.etas.remove(done);
            self.solver.remove_flow(done.slot);
        }
    }

    /// Takes an active flow out of the table, leaving its slot's heap
    /// entry and solver registration in place.
    fn unfile(&mut self, id: FlowId) -> Option<FlowState<T>> {
        let p = self.position(id)?;
        self.pos[id.slot as usize] = NO_FLOW;
        let state = self.flows.swap_remove(p);
        if let Some(moved) = self.flows.get(p) {
            self.pos[moved.id.slot as usize] = p as u32;
        }
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

    /// Recomputes the max–min fair allocation for the active flows if a
    /// solve is due, without allocating, and re-bases every flow whose
    /// rate changed; the held slot is released first. With no active flow
    /// nothing is solved, and the hold survives.
    fn recompute_rates(&mut self) {
        if self.flows.is_empty() {
            return;
        }
        self.release();
        if self.solver.solve() {
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
        self.etas.update(f.eta, f.id);
    }

    /// The cached completion instant of an active flow.
    #[cfg(test)]
    pub(crate) fn eta_of(&self, id: FlowId) -> Option<SimTime> {
        self.position(id).map(|p| self.flows[p].eta)
    }

    /// Checks the heap exactly: every entry satisfies the heap order and
    /// is indexed from its slot, the entries are the active flows' cached
    /// `(eta, id)` pairs plus the held slot's, and the top is the minimum
    /// of a linear scan. Also recounts the solver's link registration.
    #[cfg(test)]
    pub(crate) fn assert_heap_consistent(&self) {
        let entries = &self.etas.entries;
        let held = self.held.map(|done| {
            assert_eq!(self.pos.get(done.slot as usize), Some(&NO_FLOW));
            let entry = entries[self.etas.at[done.slot as usize] as usize];
            assert_eq!(entry.1, done, "held slot's heap entry");
            entry
        });
        assert_eq!(
            entries.len(),
            self.flows.len() + usize::from(held.is_some())
        );
        for (i, &(eta, id)) in entries.iter().enumerate() {
            assert_eq!(
                self.etas.at[id.slot as usize] as usize, i,
                "heap index of {id:?}"
            );
            if Some(id) != self.held {
                assert_eq!(self.eta_of(id), Some(eta), "heap key of {id:?}");
            }
            if i > 0 {
                assert!(entries[(i - 1) / 2] <= entries[i], "heap order at {i}");
            }
        }
        let scan = self.flows.iter().map(|f| (f.eta, f.id)).chain(held).min();
        assert_eq!(self.etas.peek(), scan, "heap top vs linear scan");
        self.solver.assert_links_consistent();
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
        // The taken slot's rate is exact: the completion is real before
        // any solve or readback.
        let eta_c = net.eta_of(c).unwrap();
        assert!((eta_c.as_secs() - (t_a.as_secs() + 0.5 + 5.0)).abs() < 1e-9);
        net.assert_heap_consistent();
        assert_eq!(net.next_completion(), Some((eta_c, c)));
        assert_eq!(net.eta_of(c), Some(eta_c));
        net.assert_heap_consistent();
    }

    #[test]
    fn continued_hop_keeps_the_slot_and_files_its_completion_at_once() {
        let mut net = NetSim::new(vec![10.0, 30.0]);
        let a = net.start_flow(SimTime::ZERO, &[e(0), e(1)], 100.0, 0.0, 'a');
        let b = net.start_flow(SimTime::ZERO, &[e(1)], 1_000.0, 0.0, 'b');
        let (t_a, id) = net.next_completion().unwrap();
        assert_eq!(id, a);
        assert_eq!(net.finish_flow(t_a, a), 'a');
        assert_eq!(net.held, Some(a));
        net.assert_heap_consistent();
        let c = net.start_flow(t_a, &[e(0), e(1)], 50.0, 0.5, 'c');
        assert_eq!((c.slot, c.raw()), (a.slot, 2), "same slot, fresh ordinal");
        assert_eq!(net.held, None);
        assert_eq!(net.tag(a), None);
        assert_eq!(net.tag(c), Some(&'c'));
        assert_eq!(net.flows_finished(), 1);
        // The rate carried over is exact: the completion is real at once,
        // and nothing is left for the solver to do.
        let eta_c = net.eta_of(c).unwrap();
        assert!((eta_c.as_secs() - (t_a.as_secs() + 0.5 + 5.0)).abs() < 1e-9);
        assert!(!net.solver.solve());
        net.assert_heap_consistent();
        assert_eq!(net.next_completion(), Some((eta_c, c)));
        // `b` kept its rate throughout, so it was never re-based: only the
        // two finished flows are booked.
        assert_eq!(net.rate_of(b), Some(20.0));
        net.finish_flow(eta_c, c);
        assert!((net.bytes_delivered() - 150.0).abs() < 1e-9);
    }

    #[test]
    fn continued_hop_on_another_route_falls_back_to_finish_and_start() {
        let mut net = NetSim::new(vec![10.0, 30.0]);
        let a = net.start_flow(SimTime::ZERO, &[e(0)], 100.0, 0.0, ());
        let (t_a, _) = net.next_completion().unwrap();
        net.finish_flow(t_a, a);
        let c = net.start_flow(t_a, &[e(1)], 60.0, 0.0, ());
        assert_eq!(c.raw(), 1);
        assert_eq!(net.held, None, "another route releases the hold");
        assert_eq!(net.eta_of(c), Some(SimTime::FAR_FUTURE), "no rate yet");
        assert_eq!(net.active_flows(), 1);
        assert_eq!(net.flows_finished(), 1);
        net.assert_heap_consistent();
        // The new route needs a solve: 60 bytes at 30 B/s.
        let (eta, id) = net.next_completion().unwrap();
        assert_eq!(id, c);
        assert!((eta.as_secs() - (t_a.as_secs() + 2.0)).abs() < 1e-9);
        assert_eq!(net.busy_links(), 1);
        net.assert_heap_consistent();
    }

    #[test]
    fn hold_survives_reads_and_clock_moves_while_no_flow_is_active() {
        let mut net = NetSim::new(vec![10.0, 30.0]);
        let a = net.start_flow(SimTime::ZERO, &[e(0), e(1)], 100.0, 0.0, ());
        let (t_a, _) = net.next_completion().unwrap();
        net.finish_flow(t_a, a);
        // Every read answers for an idle network, and none releases.
        assert_eq!(net.next_completion(), None);
        assert_eq!(net.rate_of(a), None);
        assert_eq!(net.busy_links(), 0);
        assert_eq!(net.fair_share_estimate(&[e(0), e(1)]), 10.0);
        assert_eq!(net.cancel_flow(t(20.0), a), None, "a clock move");
        assert_eq!(net.held, Some(a));
        net.assert_heap_consistent();
        // A later start on the same route still takes the slot over.
        let c = net.start_flow(t(20.0), &[e(0), e(1)], 50.0, 0.0, ());
        assert_eq!(net.held, None);
        assert_eq!(net.eta_of(c), Some(t(25.0)));
        assert!(!net.solver.solve());
        assert_eq!(net.next_completion(), Some((t(25.0), c)));
        net.assert_heap_consistent();
    }

    /// Two flows on disjoint routes, `a` over links 0 and 1 and `b` over
    /// link 2; `a` has finished and its slot is held.
    fn held_beside_another_flow() -> (NetSim<()>, SimTime, FlowId, FlowId) {
        let mut net = NetSim::new(vec![10.0, 30.0, 5.0]);
        let a = net.start_flow(SimTime::ZERO, &[e(0), e(1)], 100.0, 0.0, ());
        let b = net.start_flow(SimTime::ZERO, &[e(2)], 1_000.0, 0.0, ());
        let (t_a, _) = net.next_completion().unwrap();
        assert_eq!(t_a, t(10.0));
        net.finish_flow(t_a, a);
        assert_eq!(net.held, Some(a));
        (net, t_a, a, b)
    }

    #[test]
    fn link_change_on_the_held_route_keeps_the_hold() {
        // The held slot stays registered with the solver, so a change to
        // a link its route crosses marks a solve due like any other. The
        // successor takes the slot over, and the solve at that instant
        // re-bases it to exactly what a fresh engine computes.
        for change in 0..3 {
            let apply = |net: &mut NetSim<()>, now: SimTime| match change {
                0 => net.set_link_down(now, e(1)),
                1 => net.set_link_capacity_factor(now, e(0), 0.5),
                _ => net.set_link_capacity_factor(now, e(1), 1.0),
            };
            let (mut net, now, a, b) = held_beside_another_flow();
            apply(&mut net, now);
            assert_eq!(net.held, Some(a), "change {change}");
            net.assert_heap_consistent();
            let c = net.start_flow(now, &[e(0), e(1)], 100.0, 0.0, ());
            assert_eq!(net.held, None);
            // The fresh engine sees the changed link, then `b` with the
            // 950 bytes it has left and `c`.
            let mut fresh = NetSim::new(vec![10.0, 30.0, 5.0]);
            apply(&mut fresh, now);
            let fresh_b = fresh.start_flow(now, &[e(2)], 950.0, 0.0, ());
            let fresh_c = fresh.start_flow(now, &[e(0), e(1)], 100.0, 0.0, ());
            let rate = net.rate_of(c).map(f64::to_bits);
            assert_eq!(
                rate,
                fresh.rate_of(fresh_c).map(f64::to_bits),
                "change {change}"
            );
            assert_eq!(net.eta_of(c), fresh.eta_of(fresh_c), "change {change}");
            assert_eq!(net.eta_of(b), fresh.eta_of(fresh_b), "change {change}");
            assert_eq!(
                net.next_completion().map(|(at, _)| at),
                fresh.next_completion().map(|(at, _)| at),
                "change {change}"
            );
            net.assert_heap_consistent();
        }
    }

    #[test]
    fn link_change_off_the_held_route_keeps_the_hold() {
        let (mut net, now, a, b) = held_beside_another_flow();
        net.set_link_capacity_factor(now, e(2), 0.5);
        net.set_link_down(now, e(2));
        assert_eq!(net.held, Some(a));
        net.assert_heap_consistent();
        let c = net.start_flow(now, &[e(0), e(1)], 100.0, 0.0, ());
        assert_eq!(net.held, None);
        // The link changes made a solve due; `c` took the slot anyway, and
        // the solve at this instant leaves its rate as it was.
        assert_eq!(net.eta_of(c), Some(t(20.0)));
        assert_eq!(net.next_completion(), Some((t(20.0), c)));
        assert_eq!(net.flow_stalled(b), Some(true));
        net.assert_heap_consistent();
    }

    #[test]
    fn second_finish_releases_the_first_hold() {
        let mut net = NetSim::new(vec![10.0, 10.0]);
        let a = net.start_flow(SimTime::ZERO, &[e(0)], 100.0, 0.0, ());
        let b = net.start_flow(SimTime::ZERO, &[e(1)], 100.0, 0.0, ());
        let (done, _) = net.next_completion().unwrap();
        net.finish_flow(done, a);
        net.finish_flow(done, b);
        assert_eq!(net.held, Some(b));
        assert_eq!(net.etas.entries.len(), 1, "only the second hold is filed");
        net.assert_heap_consistent();
        // `a`'s route now needs a fresh slot and a solve.
        let c = net.start_flow(done, &[e(0)], 100.0, 0.0, ());
        assert_eq!(net.eta_of(c), Some(SimTime::FAR_FUTURE));
        assert_eq!(net.held, None, "the start on another route released b");
        assert_eq!(net.next_completion(), Some((t(20.0), c)));
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

    /// Two engines fed the same calls, except that `twin` releases its
    /// held slot after every call, so each of its hops is a finish, an
    /// eager unregistration and a start on a fresh slot. Index = creation
    /// ordinal = tag.
    struct HoldPair {
        net: NetSim<u64>,
        twin: NetSim<u64>,
        ids: Vec<(FlowId, FlowId)>,
        routes: Vec<Vec<EdgeId>>,
        now: SimTime,
    }

    impl HoldPair {
        fn start(&mut self, route: Vec<EdgeId>, bytes: f64, latency_s: f64) {
            let tag = self.ids.len() as u64;
            let a = self.net.start_flow(self.now, &route, bytes, latency_s, tag);
            let b = self
                .twin
                .start_flow(self.now, &route, bytes, latency_s, tag);
            prop_assert_eq!(a.raw(), b.raw());
            self.ids.push((a, b));
            self.routes.push(route);
        }

        /// Both engines' next completion, which must agree bit for bit.
        fn next_done(&mut self) -> Option<(SimTime, FlowId, FlowId)> {
            let (a, b) = (self.net.next_completion(), self.twin.next_completion());
            prop_assert_eq!(
                a.map(|(t, id)| (t.as_secs().to_bits(), id.raw())),
                b.map(|(t, id)| (t.as_secs().to_bits(), id.raw()))
            );
            let ((t, a), (_, b)) = (a?, b?);
            self.now = t;
            Some((t, a, b))
        }

        /// Finishes the next completion in both engines and returns the
        /// finished flow's route.
        fn finish_next(&mut self) -> Option<Vec<EdgeId>> {
            let (t, a, b) = self.next_done()?;
            prop_assert_eq!(self.net.finish_flow(t, a), a.raw());
            prop_assert_eq!(self.twin.finish_flow(t, b), a.raw());
            self.twin.release();
            Some(self.routes[a.raw() as usize].clone())
        }

        /// Everything observable agrees bit for bit.
        fn check(&mut self, pool: &[Vec<EdgeId>]) {
            prop_assert_eq!(
                self.net
                    .next_completion()
                    .map(|(t, id)| (t.as_secs().to_bits(), id.raw())),
                self.twin
                    .next_completion()
                    .map(|(t, id)| (t.as_secs().to_bits(), id.raw()))
            );
            for &(a, b) in &self.ids {
                prop_assert_eq!(
                    self.net.rate_of(a).map(f64::to_bits),
                    self.twin.rate_of(b).map(f64::to_bits)
                );
                prop_assert_eq!(
                    self.net.eta_of(a).map(|t| t.as_secs().to_bits()),
                    self.twin.eta_of(b).map(|t| t.as_secs().to_bits())
                );
                prop_assert_eq!(self.net.tag(a), self.twin.tag(b));
                prop_assert_eq!(self.net.flow_stalled(a), self.twin.flow_stalled(b));
            }
            prop_assert_eq!(
                self.net.bytes_delivered().to_bits(),
                self.twin.bytes_delivered().to_bits()
            );
            prop_assert_eq!(self.net.flows_finished(), self.twin.flows_finished());
            prop_assert_eq!(self.net.busy_links(), self.twin.busy_links());
            for route in pool {
                prop_assert_eq!(
                    self.net.fair_share_estimate(route).to_bits(),
                    self.twin.fair_share_estimate(route).to_bits()
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// A hop whose successor takes the held slot over is
        /// indistinguishable from a finish and a start on a fresh slot:
        /// over random routes, hops on the finished flow's route and on
        /// others, cancels, clock advances and link down/up and degrade
        /// toggles, the engine and a twin that releases its hold after
        /// every call report bit-identical completions, rates, ETAs, ids,
        /// link reads and delivered bytes, and both heaps and solver
        /// registrations stay exact after every call. Observations run
        /// after only some calls, so holds also meet same-instant bursts
        /// of starts, finishes and cancels, and clock moves with no flow
        /// active.
        #[test]
        fn continued_hops_match_finish_then_start(
            (caps, pool) in (2usize..6).prop_flat_map(|n_links| {
                let caps = proptest::collection::vec(1.0f64..50.0, n_links);
                let route = proptest::collection::btree_set(0..n_links, 0..=n_links)
                    .prop_map(|s| s.into_iter().map(|l| EdgeId(l as u32)).collect::<Vec<_>>());
                (caps, proptest::collection::vec(route, 1..5))
            }),
            // (kind, a, x): 0–1 start, 2 cancel, 3–4 hop, 5 finish,
            // 6 advance, 7 toggle a link down/up, 8 toggle degrade.
            ops in proptest::collection::vec((0u8..9, 0usize..64, 0.0f64..1.0), 1..100),
        ) {
            let n_links = caps.len();
            let mut p = HoldPair {
                net: NetSim::new(caps.clone()),
                twin: NetSim::new(caps),
                ids: Vec::new(),
                routes: Vec::new(),
                now: SimTime::ZERO,
            };
            let mut down = vec![false; n_links];
            let mut degraded = vec![false; n_links];
            for (kind, a, x) in ops {
                let bytes = if a % 2 == 0 { 100.0 } else { 500.0 * x };
                let latency = if a % 3 == 0 { x } else { 0.0 };
                match kind {
                    0 | 1 => p.start(pool[a % pool.len()].clone(), bytes, latency),
                    2 if !p.ids.is_empty() => {
                        let (na, tb) = p.ids[a % p.ids.len()];
                        let now = p.now;
                        prop_assert_eq!(
                            p.net.cancel_flow(now, na).map(f64::to_bits),
                            p.twin.cancel_flow(now, tb).map(f64::to_bits)
                        );
                    }
                    3 | 4 => {
                        if let Some(own) = p.finish_next() {
                            let route = if a % 4 == 0 { pool[a % pool.len()].clone() } else { own };
                            p.start(route, bytes, latency);
                        }
                    }
                    5 => {
                        p.finish_next();
                    }
                    6 => {
                        let mut to = p.now + SimDuration::from_secs(10.0 * x);
                        if let Some((t, _)) = p.net.next_completion() {
                            to = to.min(t);
                        }
                        p.now = to;
                    }
                    7 => {
                        let l = a % n_links;
                        let (now, link) = (p.now, EdgeId(l as u32));
                        for net in [&mut p.net, &mut p.twin] {
                            if down[l] {
                                net.set_link_up(now, link);
                            } else {
                                net.set_link_down(now, link);
                            }
                        }
                        down[l] = !down[l];
                    }
                    8 => {
                        let l = a % n_links;
                        let factor = if degraded[l] { 1.0 } else { 0.1 + 0.9 * x };
                        let (now, link) = (p.now, EdgeId(l as u32));
                        for net in [&mut p.net, &mut p.twin] {
                            net.set_link_capacity_factor(now, link, factor);
                        }
                        degraded[l] = !degraded[l];
                    }
                    _ => {}
                }
                p.twin.release();
                prop_assert_eq!(p.twin.held, None);
                p.net.assert_heap_consistent();
                p.twin.assert_heap_consistent();
                if a % 3 != 0 {
                    p.check(&pool);
                }
            }
            p.check(&pool);
        }

        #[test]
        fn bytes_are_conserved((caps, starts) in arb_starts()) {
            let (total, delivered) = drive_to_completion(caps, starts);
            prop_assert!((total - delivered).abs() <= total * 1e-6 + 1e-3,
                "total={} delivered={}", total, delivered);
        }
    }
}
