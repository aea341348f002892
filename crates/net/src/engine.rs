//! Stateful fluid network engine.
//!
//! [`NetSim`] tracks the set of active flows and their max–min fair rates.
//! The owner drives it with wall-clock-style calls:
//!
//! 1. [`NetSim::start_flow`] / [`NetSim::cancel_flow`] / [`NetSim::finish_flow`]
//!    mutate the flow set (each call first advances fluid state to `now`,
//!    then marks the allocation dirty — rates are recomputed lazily at the
//!    next observation point),
//! 2. [`NetSim::next_completion`] reports when the earliest active flow will
//!    finish if nothing else changes — the owner schedules exactly one DES
//!    event for that instant and re-queries after every mutation.
//!
//! A flow's lifetime is `latency + bytes / rate(t)`: the latency phase
//! elapses first (propagation), then bytes drain at the flow's current
//! max–min rate.
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
    /// slot table; reused once the flow is gone.
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
    remaining_latency_s: f64,
    remaining_bytes: f64,
    rate_bps: f64,
    tag: T,
}

impl<T> FlowState<T> {
    /// Absolute completion time if the rate never changes again.
    fn eta(&self, now: SimTime) -> SimTime {
        if self.rate_bps.is_infinite() {
            return now + SimDuration::from_secs(self.remaining_latency_s);
        }
        if self.rate_bps <= 0.0 {
            return SimTime::FAR_FUTURE;
        }
        now + SimDuration::from_secs(
            self.remaining_latency_s + self.remaining_bytes / self.rate_bps,
        )
    }
}

/// Fluid network simulator with max–min fair bandwidth sharing. Every
/// active flow carries a caller tag of type `T`.
///
/// Rates are recomputed **lazily**: flow mutations only mark the
/// allocation dirty, and the recompute runs at the next point the rates
/// are observable — a time advance that must drain bytes, or a
/// [`NetSim::next_completion`] / [`NetSim::rate_of`] query. Same-instant
/// mutation bursts (a batch finishing one fetch and starting the next)
/// therefore cost one recompute instead of one per mutation, with
/// bit-identical results: rates are a pure function of the flow set and
/// the drained state, both of which are unchanged while the clock stands
/// still. When the burst replaced each finished flow with one on the same
/// route, the route multiset is unchanged too, and the solver skips the
/// fill entirely (see [`MaxMinSolver`]); only the per-flow readback runs.
///
/// **No hashing, no tree.** Active flows live in a dense array visited in
/// whatever order removals left it; a slot table indexed by the solver's
/// (dense, reused) slot finds a flow's position in O(1), and the id's
/// creation ordinal rejects stale ids. The visit order cannot change any
/// result: the solver's rates do not depend on it, each flow's drain is
/// independent of the others, and the earliest completion is a minimum
/// over the total order `(eta, id)`. Only the running
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
    next_ord: u64,
    last_update: SimTime,
    /// Whether the flow set changed since the last rate recompute.
    dirty: bool,
    /// Earliest completion cached by the last recompute; invalidated by
    /// time advances (the ETA expression would be re-evaluated from
    /// drained state with different rounding).
    cached_next: Option<(SimTime, FlowId)>,
    /// Incremental max–min solver: flows register on start and deregister
    /// on finish/cancel, so a recompute rebuilds nothing.
    solver: MaxMinSolver,
    /// Total bytes fully delivered by finished flows (stats).
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
            next_ord: 0,
            last_update: SimTime::ZERO,
            dirty: false,
            cached_next: None,
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
    pub fn busy_links(&self) -> usize {
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
    /// rest of its route. Fluid state is drained up to `now` first, so
    /// bytes moved before the outage stay moved.
    ///
    /// # Panics
    ///
    /// Panics if `now` is before the engine clock, the link is unknown, or
    /// the link is already down.
    pub fn set_link_down(&mut self, now: SimTime, link: EdgeId) {
        self.advance_to(now);
        self.solver.set_link_down(link.index());
        self.mark_dirty();
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
        self.mark_dirty();
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
        self.mark_dirty();
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
    pub fn fair_share_estimate(&self, route: &[EdgeId]) -> f64 {
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
        self.flows.push(FlowState {
            id,
            remaining_latency_s: latency_s,
            remaining_bytes: bytes,
            rate_bps: 0.0,
            tag,
        });
        self.mark_dirty();
        id
    }

    /// Cancels an active flow (e.g. a replicated task got cancelled while
    /// its input transfer was in flight). Returns the bytes that had *not*
    /// yet been delivered, or `None` if the flow was unknown/already done.
    pub fn cancel_flow(&mut self, now: SimTime, id: FlowId) -> Option<f64> {
        self.advance_to(now);
        let state = self.remove(id)?;
        self.mark_dirty();
        Some(state.remaining_bytes)
    }

    /// Marks the flow finished at `now` and returns its tag. The engine
    /// checks that the flow is indeed (numerically) drained — the owner
    /// must call this exactly at the instant reported by
    /// [`NetSim::next_completion`].
    ///
    /// # Panics
    ///
    /// Panics if the flow is unknown or demonstrably unfinished (more than
    /// a relative `1e-6` of its bytes left).
    pub fn finish_flow(&mut self, now: SimTime, id: FlowId) -> T {
        self.advance_to(now);
        let state = self
            .remove(id)
            .unwrap_or_else(|| panic!("finish_flow: unknown flow {id:?}"));
        let slack = state.remaining_bytes.max(0.0);
        assert!(
            state.remaining_latency_s <= 1e-9 && slack <= 1e-3,
            "finish_flow called on unfinished flow {id:?}: {slack} bytes / {}s latency left",
            state.remaining_latency_s
        );
        self.bytes_delivered += slack; // account the numerically-lost tail
        self.flows_finished += 1;
        self.mark_dirty();
        state.tag
    }

    /// The earliest `(time, flow)` completion among active flows, assuming
    /// no further changes. `None` when no flows are active.
    pub fn next_completion(&mut self) -> Option<(SimTime, FlowId)> {
        if self.dirty {
            self.recompute_rates();
        }
        if self.cached_next.is_none() {
            self.cached_next = self.scan_next_completion();
        }
        self.cached_next
    }

    /// Current max–min rate of a flow in bytes/second, if active.
    pub fn rate_of(&mut self, id: FlowId) -> Option<f64> {
        if self.dirty {
            self.recompute_rates();
        }
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

    /// Unlinks an active flow from the table and the solver.
    fn remove(&mut self, id: FlowId) -> Option<FlowState<T>> {
        let p = self.position(id)?;
        self.pos[id.slot as usize] = NO_FLOW;
        let state = self.flows.swap_remove(p);
        if let Some(moved) = self.flows.get(p) {
            self.pos[moved.id.slot as usize] = p as u32;
        }
        self.solver.remove_flow(id.slot);
        Some(state)
    }

    fn mark_dirty(&mut self) {
        self.dirty = true;
        self.cached_next = None;
    }

    fn scan_next_completion(&self) -> Option<(SimTime, FlowId)> {
        debug_assert!(!self.dirty, "scan over unreconciled rates");
        self.flows
            .iter()
            .map(|f| (f.eta(self.last_update), f.id))
            // Stalled flows (down link on the route) have no reachable
            // completion — they wait for recovery, cancellation, or a
            // transfer-guard timeout, never for a completion event.
            .filter(|&(eta, _)| eta < SimTime::FAR_FUTURE)
            // Deterministic tie-break on flow id (creation order).
            .min()
    }

    /// Number of active flows.
    #[must_use]
    pub fn active_flows(&self) -> usize {
        self.flows.len()
    }

    /// Total bytes delivered by finished flows.
    #[must_use]
    pub fn bytes_delivered(&self) -> f64 {
        self.bytes_delivered
    }

    /// Number of finished flows.
    #[must_use]
    pub fn flows_finished(&self) -> u64 {
        self.flows_finished
    }

    /// Advances fluid state (latency count-down, byte drain) to `now`.
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
        let dt = (now - self.last_update).as_secs();
        self.last_update = now;
        if dt == 0.0 || self.flows.is_empty() {
            return;
        }
        // Rates deferred by a same-instant mutation burst become
        // observable now: the interval being drained starts at the burst's
        // instant, so reconciling here drains with exactly the rates an
        // eager recompute would have assigned then.
        if self.dirty {
            self.recompute_rates();
        }
        self.cached_next = None;
        for f in &mut self.flows {
            let mut local_dt = dt;
            if f.remaining_latency_s > 0.0 {
                let consumed = f.remaining_latency_s.min(local_dt);
                f.remaining_latency_s -= consumed;
                local_dt -= consumed;
            }
            if f.remaining_latency_s <= 0.0 && f.rate_bps.is_infinite() {
                // Co-located endpoints: the payload arrives with the
                // latency edge itself.
                self.bytes_delivered += f.remaining_bytes;
                f.remaining_bytes = 0.0;
            } else if local_dt > 0.0 {
                let drained = (f.rate_bps * local_dt).min(f.remaining_bytes);
                f.remaining_bytes -= drained;
                self.bytes_delivered += drained;
            }
        }
    }

    /// Recomputes the max–min fair allocation for the current flow set,
    /// without allocating. The solver skips the fill when the flow set
    /// only swapped finished flows for new ones on the same routes; the
    /// readback still runs, since the new flows need their rates and the
    /// earliest completion changed.
    fn recompute_rates(&mut self) {
        self.dirty = false;
        if self.flows.is_empty() {
            return;
        }
        if self.solver.solve() {
            self.recomputes.incr();
            self.touched_flows.record(self.flows.len() as u64);
        }
        // Fold the earliest-completion search into the readback pass: the
        // same (eta, id) minimum the scan would take, computed while the
        // flows are already being visited.
        let now = self.last_update;
        let mut next: Option<(SimTime, FlowId)> = None;
        for f in &mut self.flows {
            f.rate_bps = self.solver.rate(f.id.slot);
            let eta = f.eta(now);
            // Stalled flows never surface as a completion (see
            // `scan_next_completion`).
            if eta < SimTime::FAR_FUTURE && next.is_none_or(|best| (eta, f.id) < best) {
                next = Some((eta, f.id));
            }
        }
        self.cached_next = next;
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
        // cancel) re-derives the earliest completion by a fresh scan.
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
