//! The per-interval flow engine [`NetSim`] replaced, kept as a test oracle.
//!
//! [`RefNetSim`] stores active flows in a `BTreeMap` keyed by creation
//! ordinal, drains every flow's bytes at every clock advance, and takes the
//! next completion as a minimum over all flows. [`crate::NetSim`] keeps a
//! dense flow array, drains per rate epoch and files completions in a heap
//! instead. The property test below drives both with the same random call
//! sequences: rates, stall flags, tags and live ids must agree bit for bit,
//! ETAs and cancelled bytes within the rounding bound of the two drains.
//!
//! [`NetSim`]: crate::NetSim

use std::collections::BTreeMap;

use gridsched_des::{SimDuration, SimTime};
use gridsched_topology::EdgeId;

use crate::fair::MaxMinSolver;

#[derive(Debug, Clone)]
struct FlowState {
    slot: u32,
    remaining_latency_s: f64,
    remaining_bytes: f64,
    rate_bps: f64,
}

impl FlowState {
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

/// Fluid network engine over an ordered flow map; ids are bare ordinals.
#[derive(Debug)]
pub(crate) struct RefNetSim {
    flows: BTreeMap<u64, FlowState>,
    next_id: u64,
    last_update: SimTime,
    dirty: bool,
    cached_next: Option<(SimTime, u64)>,
    solver: MaxMinSolver,
}

impl RefNetSim {
    pub(crate) fn new(capacities: Vec<f64>) -> Self {
        RefNetSim {
            solver: MaxMinSolver::new(capacities),
            flows: BTreeMap::new(),
            next_id: 0,
            last_update: SimTime::ZERO,
            dirty: false,
            cached_next: None,
        }
    }

    pub(crate) fn set_link_down(&mut self, now: SimTime, link: EdgeId) {
        self.advance_to(now);
        self.solver.set_link_down(link.index());
        self.mark_dirty();
    }

    pub(crate) fn set_link_up(&mut self, now: SimTime, link: EdgeId) {
        self.advance_to(now);
        self.solver.set_link_up(link.index());
        self.mark_dirty();
    }

    pub(crate) fn set_link_capacity_factor(&mut self, now: SimTime, link: EdgeId, factor: f64) {
        self.advance_to(now);
        self.solver.set_link_capacity_factor(link.index(), factor);
        self.mark_dirty();
    }

    pub(crate) fn flow_stalled(&self, id: u64) -> Option<bool> {
        self.flows
            .get(&id)
            .map(|f| self.solver.flow_stalled(f.slot))
    }

    pub(crate) fn start_flow(
        &mut self,
        now: SimTime,
        route: &[EdgeId],
        bytes: f64,
        latency_s: f64,
    ) -> u64 {
        self.advance_to(now);
        let id = self.next_id;
        self.next_id += 1;
        let slot = self.solver.add_flow(route.iter().map(|e| e.index()));
        self.flows.insert(
            id,
            FlowState {
                slot,
                remaining_latency_s: latency_s,
                remaining_bytes: bytes,
                rate_bps: 0.0,
            },
        );
        self.mark_dirty();
        id
    }

    pub(crate) fn cancel_flow(&mut self, now: SimTime, id: u64) -> Option<f64> {
        self.advance_to(now);
        let state = self.flows.remove(&id)?;
        self.solver.remove_flow(state.slot);
        self.mark_dirty();
        Some(state.remaining_bytes)
    }

    pub(crate) fn finish_flow(&mut self, now: SimTime, id: u64) {
        self.advance_to(now);
        let state = self.flows.remove(&id).expect("finish_flow: unknown flow");
        self.solver.remove_flow(state.slot);
        self.mark_dirty();
    }

    pub(crate) fn next_completion(&mut self) -> Option<(SimTime, u64)> {
        if self.dirty {
            self.recompute_rates();
        }
        if self.cached_next.is_none() {
            self.cached_next = self
                .flows
                .iter()
                .map(|(&id, f)| (f.eta(self.last_update), id))
                .filter(|&(eta, _)| eta < SimTime::FAR_FUTURE)
                .min();
        }
        self.cached_next
    }

    pub(crate) fn rate_of(&mut self, id: u64) -> Option<f64> {
        if self.dirty {
            self.recompute_rates();
        }
        self.flows.get(&id).map(|f| f.rate_bps)
    }

    /// The flow's completion instant at the current rates.
    pub(crate) fn eta_of(&mut self, id: u64) -> Option<SimTime> {
        if self.dirty {
            self.recompute_rates();
        }
        self.flows.get(&id).map(|f| f.eta(self.last_update))
    }

    pub(crate) fn active_flows(&self) -> usize {
        self.flows.len()
    }

    fn mark_dirty(&mut self) {
        self.dirty = true;
        self.cached_next = None;
    }

    fn advance_to(&mut self, now: SimTime) {
        assert!(now >= self.last_update, "RefNetSim driven backwards");
        let dt = (now - self.last_update).as_secs();
        self.last_update = now;
        if dt == 0.0 || self.flows.is_empty() {
            return;
        }
        if self.dirty {
            self.recompute_rates();
        }
        self.cached_next = None;
        for f in self.flows.values_mut() {
            let mut local_dt = dt;
            if f.remaining_latency_s > 0.0 {
                let consumed = f.remaining_latency_s.min(local_dt);
                f.remaining_latency_s -= consumed;
                local_dt -= consumed;
            }
            if f.remaining_latency_s <= 0.0 && f.rate_bps.is_infinite() {
                f.remaining_bytes = 0.0;
            } else if local_dt > 0.0 {
                let drained = (f.rate_bps * local_dt).min(f.remaining_bytes);
                f.remaining_bytes -= drained;
            }
        }
    }

    fn recompute_rates(&mut self) {
        self.dirty = false;
        if self.flows.is_empty() {
            return;
        }
        self.solver.solve();
        let now = self.last_update;
        let mut next: Option<(SimTime, u64)> = None;
        for (&id, state) in &mut self.flows {
            state.rate_bps = self.solver.rate(state.slot);
            let eta = state.eta(now);
            if eta < SimTime::FAR_FUTURE && next.is_none_or(|best| (eta, id) < best) {
                next = Some((eta, id));
            }
        }
        self.cached_next = next;
    }
}

mod proptests {
    use super::*;
    use crate::{FlowId, NetSim};
    use proptest::prelude::*;

    /// Whether two ETAs or byte counts agree within the drain's rounding:
    /// the per-interval engine rounds once per event, the epoch engine
    /// once per rate change. Equal infinities agree.
    fn close(a: f64, b: f64) -> bool {
        a == b || (a - b).abs() <= 1e-9 * a.abs().max(b.abs()) + 1e-9
    }

    fn close_time(a: Option<SimTime>, b: Option<SimTime>) -> bool {
        match (a, b) {
            (Some(a), Some(b)) => close(a.as_secs(), b.as_secs()),
            (a, b) => a == b,
        }
    }

    /// Both engines plus every id issued so far (`(new, reference)`,
    /// index = creation ordinal = the flow's tag).
    struct Pair {
        net: NetSim<u64>,
        reference: RefNetSim,
        ids: Vec<(FlowId, u64)>,
        routes: Vec<Vec<EdgeId>>,
        now: SimTime,
    }

    impl Pair {
        fn start(&mut self, route: Vec<EdgeId>, bytes: f64, latency_s: f64) {
            let tag = self.ids.len() as u64;
            let id = self.net.start_flow(self.now, &route, bytes, latency_s, tag);
            let rid = self
                .reference
                .start_flow(self.now, &route, bytes, latency_s);
            self.ids.push((id, rid));
            self.routes.push(route);
        }

        /// The epoch engine's earliest completion, checked against the
        /// reference's, with the clock moved to it. The reference must
        /// pick the same flow unless its pick completes within the
        /// rounding bound of it.
        fn next_done(&mut self) -> Option<(SimTime, FlowId)> {
            let got = self.net.next_completion();
            let want = self.reference.next_completion();
            prop_assert_eq!(got.is_some(), want.is_some());
            let (t, id) = got?;
            let (rt, rid) = want?;
            prop_assert!(close(t.as_secs(), rt.as_secs()), "eta {t} vs {rt}");
            if rid != id.raw() {
                let reference_eta = self.reference.eta_of(id.raw());
                prop_assert!(
                    close_time(Some(t), reference_eta),
                    "flow {} finishes at {t} but the reference has {rid} first at {rt} \
                     and this flow at {reference_eta:?}",
                    id.raw()
                );
            }
            self.now = t;
            Some((t, id))
        }

        /// Finishes the earliest completion in both engines at its
        /// instant; returns the finished flow's route.
        fn finish_next(&mut self) -> Option<Vec<EdgeId>> {
            let (t, id) = self.next_done()?;
            let tag = self.net.finish_flow(t, id);
            prop_assert_eq!(tag, id.raw());
            self.reference.finish_flow(t, id.raw());
            Some(self.routes[tag as usize].clone())
        }

        /// Continues the earliest completion with a successor over `route`
        /// (the finished flow's own when `None`): in place in the epoch
        /// engine, as a finish plus a start in the reference.
        fn continue_next(&mut self, route: Option<Vec<EdgeId>>, bytes: f64, latency_s: f64) {
            let Some((t, id)) = self.next_done() else {
                return;
            };
            let route = route.unwrap_or_else(|| self.routes[id.raw() as usize].clone());
            let tag = self.ids.len() as u64;
            let next = self.net.continue_flow(t, id, &route, bytes, latency_s, tag);
            self.reference.finish_flow(t, id.raw());
            let rid = self.reference.start_flow(t, &route, bytes, latency_s);
            self.ids.push((next, rid));
            self.routes.push(route);
        }

        /// Moves the clock forward by `dt`, but never past the next
        /// completion (the owner always handles it first).
        fn advance(&mut self, dt: f64) {
            let mut to = self.now + SimDuration::from_secs(dt);
            if let Some((t, _)) = self.net.next_completion() {
                to = to.min(t);
            }
            self.now = to;
        }

        /// Rates, stall flags, tags and live ids agree bit for bit; ETAs
        /// agree within the rounding bound; the heap's top is exact.
        fn check(&mut self) {
            self.net.assert_heap_consistent();
            prop_assert_eq!(self.net.active_flows(), self.reference.active_flows());
            let got = self.net.next_completion();
            let want = self.reference.next_completion();
            prop_assert!(
                close_time(got.map(|c| c.0), want.map(|c| c.0)),
                "next completion {got:?} vs {want:?}"
            );
            for (ord, &(id, rid)) in self.ids.iter().enumerate() {
                prop_assert_eq!(id.raw(), rid);
                prop_assert_eq!(self.net.flow_stalled(id), self.reference.flow_stalled(rid));
                prop_assert_eq!(
                    self.net.rate_of(id).map(f64::to_bits),
                    self.reference.rate_of(rid).map(f64::to_bits)
                );
                let (eta, reference_eta) = (self.net.eta_of(id), self.reference.eta_of(rid));
                prop_assert!(
                    close_time(eta, reference_eta),
                    "flow {rid}: eta {eta:?} vs {reference_eta:?}"
                );
                let live = self.reference.flow_stalled(rid).is_some();
                prop_assert_eq!(self.net.tag(id).copied(), live.then_some(ord as u64));
            }
            let mut listed: Vec<(u64, u64)> =
                self.net.flows().map(|(id, &tag)| (id.raw(), tag)).collect();
            listed.sort_unstable();
            let want: Vec<(u64, u64)> = self.reference.flows.keys().map(|&k| (k, k)).collect();
            prop_assert_eq!(listed, want);
            self.net.assert_heap_consistent();
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Random starts, cancels of live and finished flows, finishes at
        /// `next_completion`, same-route swaps, hops continued in place (on
        /// the finished flow's route or another), clock advances and link
        /// down/up/degrade toggles: after every step the epoch engine
        /// matches the per-interval engine — rates, stalls, tags and ids
        /// bit for bit, ETAs and cancelled bytes within the rounding
        /// bound — and its heap top equals a linear scan.
        #[test]
        fn netsim_matches_ordered_map_reference(
            (caps, pool) in (2usize..6).prop_flat_map(|n_links| {
                let caps = proptest::collection::vec(1.0f64..50.0, n_links);
                let route = proptest::collection::btree_set(0..n_links, 1..=n_links)
                    .prop_map(|s| s.into_iter().map(|l| EdgeId(l as u32)).collect::<Vec<_>>());
                (caps, proptest::collection::vec(route, 1..5))
            }),
            // (kind, a, x): 0–1 start, 2 cancel, 3 finish, 4 same-route
            // swap, 5 advance, 6 toggle a link down/up, 7 toggle degrade,
            // 8 continue the next completion.
            ops in proptest::collection::vec((0u8..9, 0usize..64, 0.0f64..1.0), 1..80),
        ) {
            let n_links = caps.len();
            let mut p = Pair {
                net: NetSim::new(caps.clone()),
                reference: RefNetSim::new(caps),
                ids: Vec::new(),
                routes: Vec::new(),
                now: SimTime::ZERO,
            };
            let mut down = vec![false; n_links];
            let mut degraded = vec![false; n_links];
            for (kind, a, x) in ops {
                match kind {
                    0 | 1 => {
                        let route = pool[a % pool.len()].clone();
                        // Fixed sizes make same-route flows started at one
                        // instant tie on their completion time.
                        let bytes = if a % 2 == 0 { 100.0 } else { 500.0 * x };
                        p.start(route, bytes, if a % 3 == 0 { x } else { 0.0 });
                    }
                    2 if !p.ids.is_empty() => {
                        let (id, rid) = p.ids[a % p.ids.len()];
                        let now = p.now;
                        let (left, reference_left) =
                            (p.net.cancel_flow(now, id), p.reference.cancel_flow(now, rid));
                        prop_assert_eq!(left.is_some(), reference_left.is_some());
                        if let (Some(l), Some(r)) = (left, reference_left) {
                            prop_assert!(close(l, r), "cancelled bytes {l} vs {r}");
                        }
                    }
                    3 => {
                        p.finish_next();
                    }
                    4 => {
                        if let Some(route) = p.finish_next() {
                            p.start(route, 500.0 * x, 0.0);
                        }
                    }
                    5 => p.advance(10.0 * x),
                    6 => {
                        let l = a % n_links;
                        let (now, link) = (p.now, EdgeId(l as u32));
                        if down[l] {
                            p.net.set_link_up(now, link);
                            p.reference.set_link_up(now, link);
                        } else {
                            p.net.set_link_down(now, link);
                            p.reference.set_link_down(now, link);
                        }
                        down[l] = !down[l];
                    }
                    7 => {
                        let l = a % n_links;
                        let factor = if degraded[l] { 1.0 } else { 0.1 + 0.9 * x };
                        let (now, link) = (p.now, EdgeId(l as u32));
                        p.net.set_link_capacity_factor(now, link, factor);
                        p.reference.set_link_capacity_factor(now, link, factor);
                        degraded[l] = !degraded[l];
                    }
                    8 => {
                        let route = (a % 3 == 0).then(|| pool[a % pool.len()].clone());
                        p.continue_next(route, 500.0 * x, if a % 2 == 0 { x } else { 0.0 });
                    }
                    _ => {}
                }
                p.check();
            }
        }
    }
}
