//! Max–min fair bandwidth allocation by progressive filling.
//!
//! Given link capacities and the set of links each flow crosses, the
//! progressive-filling algorithm raises all flow rates together until a link
//! saturates, freezes the flows crossing it, and repeats. The result is the
//! unique max–min fair allocation: no flow's rate can be increased without
//! decreasing the rate of a flow that already has an equal or smaller rate.
//!
//! This is the allocation model SimGrid's fluid network engine uses (up to
//! SimGrid's optional RTT weighting, which the paper does not rely on).
//!
//! Two implementations share the algorithm:
//!
//! * [`max_min_rates`] — the executable specification: simple, allocates
//!   per call, scans every link per round;
//! * [`MaxMinSolver`] — the hot-path implementation `NetSim` uses for its
//!   per-flow-event recomputes. It is **bit-identical** to the
//!   specification (property-tested via `to_bits`) while touching only the
//!   links flows actually cross: a shared rate accumulator replaces the
//!   per-flow additions (all unsaturated flows accumulate the *same* share
//!   sequence, so one fold reproduces every flow's fold exactly), per-link
//!   repeated subtraction replaces the per-flow route walks (a link's
//!   `remaining` is decremented once per unsaturated crossing flow with
//!   the same value either way), and per-link flow lists make the freeze
//!   step `O(crossing flows)` instead of a full flow scan. Scratch buffers
//!   persist across calls, so a recompute allocates nothing, and a solve
//!   whose flow set only swapped a finished flow for one on the same route
//!   is skipped outright (the rates are a function of the route multiset),
//!   as is the swap's unlink and relink of that route. A hop within a
//!   batch does not reach the solver at all (`NetSim::continue_flow`).

use std::borrow::Borrow;

/// Computes max–min fair rates.
///
/// * `capacities[l]` — capacity of link `l` (must be positive and finite).
/// * `flow_routes[f]` — the links flow `f` crosses. A flow with an **empty
///   route** shares no link and gets `f64::INFINITY` (used for co-located
///   endpoints).
///
/// Returns one rate per flow.
///
/// # Panics
///
/// Panics if a route references a link `>= capacities.len()` or a capacity
/// is not positive/finite.
///
/// # Complexity
///
/// `O(R · (F + L))` where `R ≤ L` is the number of filling rounds — at least
/// one link saturates per round.
#[must_use]
pub fn max_min_rates(capacities: &[f64], flow_routes: &[Vec<usize>]) -> Vec<f64> {
    for &c in capacities {
        assert!(c.is_finite() && c > 0.0, "capacity must be positive: {c}");
    }
    let n_links = capacities.len();
    let n_flows = flow_routes.len();
    let mut rates = vec![0.0_f64; n_flows];
    let mut saturated = vec![false; n_flows];
    let mut remaining: Vec<f64> = capacities.to_vec();
    // Active flow count per link.
    let mut active = vec![0usize; n_links];
    for route in flow_routes {
        for &l in route {
            assert!(l < n_links, "route references unknown link {l}");
            active[l] += 1;
        }
    }
    for (f, route) in flow_routes.iter().enumerate() {
        if route.is_empty() {
            rates[f] = f64::INFINITY;
            saturated[f] = true;
        }
    }

    loop {
        // Find the tightest link among links carrying unsaturated flows.
        let mut best: Option<(f64, usize)> = None;
        for l in 0..n_links {
            if active[l] == 0 {
                continue;
            }
            let share = remaining[l] / active[l] as f64;
            match best {
                Some((s, _)) if share >= s => {}
                _ => best = Some((share, l)),
            }
        }
        let Some((share, bottleneck)) = best else {
            break; // no unsaturated flows left
        };
        // Freeze every unsaturated flow crossing the bottleneck at
        // `current + share`... with progressive filling all unsaturated flows
        // have the same accumulated rate, tracked implicitly: we add `share`
        // to each unsaturated flow's rate and subtract it on every link they
        // cross, then freeze the bottleneck's flows.
        for (f, route) in flow_routes.iter().enumerate() {
            if saturated[f] || route.is_empty() {
                continue;
            }
            rates[f] += share;
            for &l in route {
                remaining[l] -= share;
            }
        }
        for (f, route) in flow_routes.iter().enumerate() {
            if saturated[f] {
                continue;
            }
            if route.contains(&bottleneck) {
                saturated[f] = true;
                for &l in route {
                    active[l] -= 1;
                }
            }
        }
        // Numerical hygiene: clamp tiny negatives from float error.
        remaining[bottleneck] = remaining[bottleneck].max(0.0);
    }
    rates
}

/// Allocation-free, incrementally-registered progressive filling,
/// bit-identical to [`max_min_rates`]. Keep one solver per
/// [`crate::NetSim`]; flows register once ([`MaxMinSolver::add_flow`] /
/// [`MaxMinSolver::remove_flow`]) instead of being re-described on every
/// recompute, so a [`MaxMinSolver::solve`] call touches only per-call
/// state (no CSR rebuild, no sort, no allocation).
///
/// Every transformation preserves the specification's float operations:
///
/// * all unsaturated flows accumulate the *same* share sequence from the
///   same starting `0.0`, so one shared fold (`acc`) reproduces each
///   flow's per-round additions bit for bit;
/// * a link's `remaining` is decremented once per unsaturated crossing
///   flow with the same share either way, so per-link repeated
///   subtraction yields the same bits (links are mutually independent,
///   order across links immaterial);
/// * `x / 1.0 == x` exactly, so single-flow links skip the division;
/// * links carrying exactly one flow all receive identical per-round
///   subtraction chains, which preserves their relative order (f64
///   subtraction of a common value is weakly monotone) — so the
///   single-flow bottleneck candidate comes from a cursor over a
///   **static** capacity-sorted link order instead of a per-round scan,
///   with an equal-value run walk reproducing the specification's
///   lowest-link-id tie-break when rounding merges adjacent values. Only
///   genuinely shared links (the backbone, a handful per topology) are
///   scanned per round.
///
/// Links can be marked **down** or **degraded** ([`MaxMinSolver::set_link_down`],
/// [`MaxMinSolver::set_link_capacity_factor`]): a down link stalls every
/// crossing flow at rate `0.0` and withdraws those flows from the fill
/// entirely (they consume nothing on their other links), while a degraded
/// link re-enters the fill at `base_capacity × factor`. Both states keep
/// the solver bit-identical to a fresh [`max_min_rates`] call over the
/// effective capacities and the non-stalled flows (property-tested).
///
/// **Same-route swaps skip the solve.** The fill is a pure function of the
/// route multiset, the capacities and the down states: flows with equal
/// routes saturate in the same round, and the freeze order commutes. So
/// [`MaxMinSolver::remove_flow`] *parks* the slot — its route and
/// last-solved rate are kept until the next solve — and a
/// [`MaxMinSolver::add_flow`] over an equal route revives a parked slot
/// with that rate, which is still exact. A hop from one file of a batch
/// to the next never gets here: `NetSim::continue_flow` keeps the slot
/// registered and the solver is not called. Parking serves the hops it
/// cannot see, across a batch boundary: the finished batch's last flow
/// ends, and the next batch's first flow starts over the same route after
/// the server has picked its next request. Only an unmatched add, or a link
/// down/up or capacity change on a link that a registered or parked flow
/// crosses, marks the solver dirty (rates depend on no other link);
/// [`MaxMinSolver::solve`] does no work (and says so) when nothing is
/// dirty and no slot is still parked, i.e. when every removal since the
/// last solve was replaced on the same route.
///
/// **The unlink is deferred too.** A parked slot stays registered on its
/// links (crossing counts, per-link flow lists, touched links, live list)
/// until something reads that registration: [`MaxMinSolver::solve`],
/// [`MaxMinSolver::set_link_down`], [`MaxMinSolver::set_link_up`],
/// [`MaxMinSolver::set_link_capacity_factor`],
/// [`MaxMinSolver::fair_share_estimate`], [`MaxMinSolver::busy_links`] and
/// [`MaxMinSolver::flow_count`] each first deregister every parked slot
/// still linked, so each sees exactly the state an eager unlink would have
/// left. A same-route add that revives a still-linked slot therefore does
/// no per-link work at all: its registration is already in place, and its
/// stall count is current because every link event flushes first. A file
/// hop — finish a flow, start its successor on the same route, solve —
/// touches no link list.
#[derive(Debug)]
#[cfg_attr(test, derive(Clone))]
pub struct MaxMinSolver {
    capacities: Vec<f64>,
    /// Configured capacities; `capacities` is `base × degrade factor`.
    base_capacities: Vec<f64>,
    /// Per link: whether the link is currently down (faulted).
    down: Vec<bool>,
    /// Count of down links (cheap probe-column readback).
    down_count: usize,
    /// Link ids sorted by `(capacity, id)` — re-sorted only when a degrade
    /// factor changes a capacity.
    caps_order: Vec<u32>,
    /// Per link: registered flows crossing it.
    crossing: Vec<u32>,
    /// Per link: registered *non-stalled* flows crossing it — the crossing
    /// count of the reduced system the fill actually solves.
    crossing_up: Vec<u32>,
    /// Per link: the slots of its crossing flows (unordered — the freeze
    /// step's effects commute bitwise).
    link_flows: Vec<Vec<u32>>,
    /// Per slot: the links the flow crosses (with multiplicity).
    routes: Vec<Vec<u32>>,
    /// Per slot: how many down links the flow's route crosses (with
    /// multiplicity). Non-zero ⇒ the flow is stalled at rate `0.0`.
    stalled_by: Vec<u32>,
    free_slots: Vec<u32>,
    /// Slots removed since the last solve, still holding their route and
    /// last-solved rate for a same-route [`MaxMinSolver::add_flow`] to
    /// revive. Released to `free_slots` by the next solve.
    parked: Vec<u32>,
    /// Per slot: whether the slot is counted in `crossing`, `crossing_up`,
    /// `link_flows`, `touched` and `live_slots` — every registered slot,
    /// and a parked one until the next [`MaxMinSolver::flush`].
    linked: Vec<bool>,
    /// Whether a change that can move a rate (an add not matched by a
    /// parked slot, a link state or capacity change) happened since the
    /// last solve.
    dirty: bool,
    live_slots: Vec<u32>,
    live_pos: Vec<u32>,
    /// Ascending link ids with `crossing > 0`.
    touched: Vec<u32>,
    // --- per-call scratch ---
    remaining: Vec<f64>,
    active: Vec<u32>,
    /// Links with ≥ 2 crossing flows at call start, ascending (compacted
    /// as they empty).
    multi: Vec<u32>,
    /// This call's per-round shares — the drain history single-flow links
    /// replay lazily.
    shares: Vec<f64>,
    /// Per link: how many rounds of `shares` have been applied to
    /// `remaining` (single-flow links only; shared links drain eagerly).
    applied: Vec<u32>,
    saturated: Vec<bool>,
    rates: Vec<f64>,
}

/// Applies the outstanding drain history to a lazily-drained link: the
/// same per-round subtractions the specification performs, just deferred
/// until the value is actually read (most single-flow links are never read
/// in a given round — only the head of the capacity order and its
/// equal-value run are).
#[inline]
fn materialize(remaining: &mut [f64], applied: &mut [u32], shares: &[f64], l: usize) {
    let mut k = applied[l] as usize;
    while k < shares.len() {
        remaining[l] -= shares[k];
        k += 1;
    }
    applied[l] = shares.len() as u32;
}

impl MaxMinSolver {
    /// A solver over links with the given capacities (bytes/second).
    ///
    /// # Panics
    ///
    /// Panics if any capacity is non-positive or non-finite.
    #[must_use]
    pub fn new(capacities: Vec<f64>) -> Self {
        for &c in &capacities {
            assert!(c.is_finite() && c > 0.0, "capacity must be positive: {c}");
        }
        let n = capacities.len();
        let mut caps_order: Vec<u32> = (0..n as u32).collect();
        caps_order.sort_unstable_by(|&a, &b| {
            capacities[a as usize]
                .partial_cmp(&capacities[b as usize])
                .expect("finite capacities")
                .then(a.cmp(&b))
        });
        MaxMinSolver {
            base_capacities: capacities.clone(),
            capacities,
            down: vec![false; n],
            down_count: 0,
            caps_order,
            crossing: vec![0; n],
            crossing_up: vec![0; n],
            link_flows: vec![Vec::new(); n],
            routes: Vec::new(),
            stalled_by: Vec::new(),
            free_slots: Vec::new(),
            parked: Vec::new(),
            linked: Vec::new(),
            dirty: false,
            live_slots: Vec::new(),
            live_pos: Vec::new(),
            touched: Vec::new(),
            remaining: vec![0.0; n],
            active: vec![0; n],
            multi: Vec::new(),
            shares: Vec::new(),
            applied: vec![0; n],
            saturated: Vec::new(),
            rates: Vec::new(),
        }
    }

    /// Registers a flow crossing `route` (link indices; empty = co-located
    /// endpoints, rate `+∞`). Returns the flow's slot.
    ///
    /// A route equal to a slot parked by [`MaxMinSolver::remove_flow`]
    /// since the last solve revives that slot, last-solved rate included
    /// (and, if it is still linked, without touching a link); any other
    /// route marks the solver dirty, and its slot reads rate `0.0` until
    /// the next solve.
    ///
    /// # Panics
    ///
    /// Panics if the route references a link `>= capacities.len()`.
    pub fn add_flow<I>(&mut self, route: I) -> u32
    where
        I: IntoIterator,
        I::Item: Borrow<usize>,
        I::IntoIter: Clone,
    {
        self.register_flow(route).0
    }

    /// [`MaxMinSolver::add_flow`], also saying whether the slot is a
    /// revived parked one.
    ///
    /// # Panics
    ///
    /// Panics if the route references a link `>= capacities.len()`.
    pub(crate) fn register_flow<I>(&mut self, route: I) -> (u32, bool)
    where
        I: IntoIterator,
        I::Item: Borrow<usize>,
        I::IntoIter: Clone,
    {
        let route = route.into_iter();
        let links = || route.clone().map(|l| *l.borrow());
        let revived = self.parked.iter().position(|&p| self.route_is(p, links()));
        let slot = if let Some(i) = revived {
            let slot = self.parked.swap_remove(i);
            if self.linked[slot as usize] {
                return (slot, true);
            }
            slot
        } else {
            self.dirty = true;
            let slot = self.free_slots.pop().unwrap_or_else(|| {
                let s = self.routes.len() as u32;
                self.routes.push(Vec::new());
                self.stalled_by.push(0);
                self.linked.push(false);
                self.saturated.push(false);
                self.rates.push(0.0);
                self.live_pos.push(0);
                s
            });
            self.rates[slot as usize] = 0.0;
            let n_links = self.capacities.len();
            let r = &mut self.routes[slot as usize];
            r.clear();
            r.extend(links().map(|l| {
                assert!(l < n_links, "route references unknown link {l}");
                l as u32
            }));
            slot
        };
        let s = slot as usize;
        let stalls = self.routes[s]
            .iter()
            .filter(|&&l| self.down[l as usize])
            .count() as u32;
        self.stalled_by[s] = stalls;
        for j in 0..self.routes[s].len() {
            let l = self.routes[s][j] as usize;
            if self.crossing[l] == 0 {
                let pos = self
                    .touched
                    .binary_search(&(l as u32))
                    .expect_err("link was untouched");
                self.touched.insert(pos, l as u32);
            }
            self.crossing[l] += 1;
            if stalls == 0 {
                self.crossing_up[l] += 1;
            }
            self.link_flows[l].push(slot);
        }
        self.live_pos[s] = self.live_slots.len() as u32;
        self.live_slots.push(slot);
        self.linked[s] = true;
        (slot, revived.is_some())
    }

    /// Unregisters a flow. The slot is parked (route and rate kept) until
    /// the next [`MaxMinSolver::solve`], for a same-route
    /// [`MaxMinSolver::add_flow`] to revive; its links are released only
    /// when link state is next read (see the type docs).
    ///
    /// # Panics
    ///
    /// Panics if `slot` is not a registered flow.
    pub fn remove_flow(&mut self, slot: u32) {
        assert!(
            self.linked[slot as usize] && !self.parked.contains(&slot),
            "flow {slot} not registered"
        );
        self.parked.push(slot);
    }

    /// Deregisters every parked slot that is still linked, leaving the
    /// link state an eager unlink at each removal would have left. Runs
    /// first in every call that reads link registration.
    fn flush(&mut self) {
        for i in 0..self.parked.len() {
            let slot = self.parked[i];
            if self.linked[slot as usize] {
                self.unlink(slot);
            }
        }
    }

    /// Releases `slot`'s links and drops it from the live list.
    fn unlink(&mut self, slot: u32) {
        let s = slot as usize;
        let was_up = self.stalled_by[s] == 0;
        for j in 0..self.routes[s].len() {
            let l = self.routes[s][j] as usize;
            self.crossing[l] -= 1;
            if was_up {
                self.crossing_up[l] -= 1;
            }
            let lf = &mut self.link_flows[l];
            let pos = lf.iter().position(|&x| x == slot).expect("flow registered");
            lf.swap_remove(pos);
            if self.crossing[l] == 0 {
                let pos = self
                    .touched
                    .binary_search(&(l as u32))
                    .expect("touched link listed");
                self.touched.remove(pos);
            }
        }
        let pos = self.live_pos[s] as usize;
        let last = self.live_slots.pop().expect("slot is live");
        if last != slot {
            self.live_slots[pos] = last;
            self.live_pos[last as usize] = pos as u32;
        }
        self.linked[s] = false;
    }

    /// Marks link `l` down: every crossing flow stalls at rate `0.0` on
    /// the next [`MaxMinSolver::solve`] and stops consuming capacity on
    /// the rest of its route.
    ///
    /// # Panics
    ///
    /// Panics if `l` is unknown or already down (the owner drives each
    /// link through strict down/up alternation, like worker churn).
    pub fn set_link_down(&mut self, l: usize) {
        assert!(l < self.down.len(), "unknown link {l}");
        assert!(!self.down[l], "link {l} already down");
        self.flush();
        self.down[l] = true;
        self.down_count += 1;
        self.dirty |= self.link_in_use(l);
        for i in 0..self.link_flows[l].len() {
            let s = self.link_flows[l][i] as usize;
            if self.stalled_by[s] == 0 {
                // The flow just stalled: withdraw it from every link it
                // crosses (including this one).
                for j in 0..self.routes[s].len() {
                    self.crossing_up[self.routes[s][j] as usize] -= 1;
                }
            }
            self.stalled_by[s] += 1;
        }
    }

    /// Brings link `l` back up; flows stalled solely by it resume.
    ///
    /// # Panics
    ///
    /// Panics if `l` is unknown or not down.
    pub fn set_link_up(&mut self, l: usize) {
        assert!(l < self.down.len(), "unknown link {l}");
        assert!(self.down[l], "link {l} is not down");
        self.flush();
        self.down[l] = false;
        self.down_count -= 1;
        self.dirty |= self.link_in_use(l);
        for i in 0..self.link_flows[l].len() {
            let s = self.link_flows[l][i] as usize;
            self.stalled_by[s] -= 1;
            if self.stalled_by[s] == 0 {
                for j in 0..self.routes[s].len() {
                    self.crossing_up[self.routes[s][j] as usize] += 1;
                }
            }
        }
    }

    /// Sets link `l`'s effective capacity to `base × factor` (a degraded-
    /// bandwidth window; `1.0` restores the configured capacity exactly).
    /// The capacity-sorted candidate order is re-sorted — an `O(L log L)`
    /// cost paid only on fault transitions, never per solve.
    ///
    /// # Panics
    ///
    /// Panics if `l` is unknown or `factor` is not in `(0, 1]`.
    pub fn set_link_capacity_factor(&mut self, l: usize, factor: f64) {
        assert!(l < self.capacities.len(), "unknown link {l}");
        assert!(
            factor > 0.0 && factor <= 1.0 && factor.is_finite(),
            "degrade factor must be in (0, 1]: {factor}"
        );
        self.flush();
        self.dirty |= self.link_in_use(l);
        self.capacities[l] = if factor == 1.0 {
            self.base_capacities[l]
        } else {
            self.base_capacities[l] * factor
        };
        let caps = &self.capacities;
        self.caps_order.sort_unstable_by(|&a, &b| {
            caps[a as usize]
                .partial_cmp(&caps[b as usize])
                .expect("finite capacities")
                .then(a.cmp(&b))
        });
    }

    /// Whether a registered flow crosses link `l`, or a parked slot
    /// whose last-solved rate a same-route add could revive does. Rates
    /// depend only on the links such flows cross, so a state change on any
    /// other link leaves every rate as it is and needs no solve.
    fn link_in_use(&self, l: usize) -> bool {
        !self.link_flows[l].is_empty()
            || self
                .parked
                .iter()
                .any(|&p| self.routes[p as usize].contains(&(l as u32)))
    }

    /// Whether link `l` is currently down.
    #[must_use]
    pub fn is_link_down(&self, l: usize) -> bool {
        self.down[l]
    }

    /// Number of links currently down.
    #[must_use]
    pub fn links_down(&self) -> usize {
        self.down_count
    }

    /// Whether the registered flow in `slot` is stalled by a down link.
    #[must_use]
    pub fn flow_stalled(&self, slot: u32) -> bool {
        self.stalled_by[slot as usize] > 0
    }

    /// Number of registered flows.
    #[must_use]
    pub fn flow_count(&mut self) -> usize {
        self.flush();
        self.live_slots.len()
    }

    /// Number of links crossed by at least one registered flow (the
    /// touched-link working set a [`MaxMinSolver::solve`] visits).
    #[must_use]
    pub fn busy_links(&mut self) -> usize {
        self.flush();
        self.touched.len()
    }

    /// Total number of links (registered capacities).
    #[must_use]
    pub fn link_count(&self) -> usize {
        self.capacities.len()
    }

    /// Whether the flow in `slot` crosses exactly `route` (in order).
    #[must_use]
    pub(crate) fn route_is<I>(&self, slot: u32, route: I) -> bool
    where
        I: IntoIterator,
        I::Item: Borrow<usize>,
    {
        self.routes[slot as usize]
            .iter()
            .map(|&l| l as usize)
            .eq(route.into_iter().map(|l| *l.borrow()))
    }

    /// The rate computed for `slot` by the last [`MaxMinSolver::solve`]:
    /// a revived slot keeps the rate it was parked with, and a slot
    /// registered on a new route since reads `0.0`.
    #[must_use]
    pub fn rate(&self, slot: u32) -> f64 {
        self.rates[slot as usize]
    }

    /// An optimistic fair-share rate estimate for a flow over `route`: the
    /// minimum over its links of `capacity / non-stalled crossing flows`
    /// (at least one, so a freshly registered flow counts itself). The true
    /// max–min rate can only exceed this bound — crossing flows that are
    /// bottlenecked elsewhere release bandwidth the estimate does not
    /// claim — which makes it a sound basis for transfer timeouts: a flow
    /// progressing at its fair share never times out. An empty route (no
    /// links crossed) estimates `+∞`.
    #[must_use]
    pub fn fair_share_estimate<I>(&mut self, route: I) -> f64
    where
        I: IntoIterator,
        I::Item: Borrow<usize>,
    {
        self.flush();
        route
            .into_iter()
            .map(|l| {
                let l = *l.borrow();
                self.capacities[l] / f64::from(self.crossing_up[l].max(1))
            })
            .fold(f64::INFINITY, f64::min)
    }

    /// Computes max–min fair rates for the registered flows (read back
    /// with [`MaxMinSolver::rate`]). Returns whether a fill actually ran:
    /// `false` when every removal since the last solve was revived by a
    /// same-route add and nothing else changed, so every rate already
    /// holds.
    pub fn solve(&mut self) -> bool {
        if !self.dirty && self.parked.is_empty() {
            return false;
        }
        self.flush();
        self.dirty = false;
        self.free_slots.append(&mut self.parked);
        for i in 0..self.live_slots.len() {
            let s = self.live_slots[i] as usize;
            if self.stalled_by[s] > 0 {
                // Stalled by a down link: pre-saturated at zero, invisible
                // to the fill (its `crossing_up` contributions are already
                // withdrawn).
                self.saturated[s] = true;
                self.rates[s] = 0.0;
            } else if self.routes[s].is_empty() {
                self.saturated[s] = true;
                self.rates[s] = f64::INFINITY;
            } else {
                self.saturated[s] = false;
                self.rates[s] = 0.0;
            }
        }
        self.multi.clear();
        self.shares.clear();
        for i in 0..self.touched.len() {
            let l = self.touched[i] as usize;
            self.active[l] = self.crossing_up[l];
            self.remaining[l] = self.capacities[l];
            if self.crossing_up[l] == 1 {
                self.applied[l] = 0;
            } else if self.crossing_up[l] >= 2 {
                self.multi.push(l as u32);
            }
        }
        // Progressive filling; `acc` is the shared accumulated rate of
        // every still-unsaturated flow.
        let mut cursor = 0usize;
        let mut acc = 0.0f64;
        loop {
            // Single-flow candidate: the first still-active entry in the
            // static (capacity, id) order; rounding can merge adjacent
            // values, and the specification breaks value ties by the
            // lowest link id, so walk the equal-value run.
            while cursor < self.caps_order.len() {
                let l = self.caps_order[cursor] as usize;
                if self.crossing_up[l] == 1 && self.active[l] == 1 {
                    break;
                }
                cursor += 1;
            }
            let single = if cursor < self.caps_order.len() {
                let head = self.caps_order[cursor] as usize;
                materialize(&mut self.remaining, &mut self.applied, &self.shares, head);
                let value = self.remaining[head];
                let mut best_l = head;
                let mut j = cursor + 1;
                while j < self.caps_order.len() {
                    let l = self.caps_order[j] as usize;
                    j += 1;
                    if self.crossing_up[l] != 1 || self.active[l] != 1 {
                        continue;
                    }
                    materialize(&mut self.remaining, &mut self.applied, &self.shares, l);
                    if self.remaining[l] == value {
                        best_l = best_l.min(l);
                        continue;
                    }
                    break;
                }
                Some((value, best_l))
            } else {
                None
            };
            // Shared-link candidate: ascending scan (first strictly
            // smaller kept, matching the specification's tie-break),
            // compacting emptied links.
            let mut m_best: Option<(f64, usize)> = None;
            let mut w = 0;
            for i in 0..self.multi.len() {
                let l = self.multi[i] as usize;
                if self.active[l] == 0 {
                    continue;
                }
                self.multi[w] = l as u32;
                w += 1;
                // `x / 1.0 == x` exactly (IEEE 754).
                let share = if self.active[l] == 1 {
                    self.remaining[l]
                } else {
                    self.remaining[l] / f64::from(self.active[l])
                };
                match m_best {
                    Some((s, _)) if share >= s => {}
                    _ => m_best = Some((share, l)),
                }
            }
            self.multi.truncate(w);
            // Combine: strictly smaller wins; equal values go to the
            // lowest link id, exactly like the specification's ascending
            // first-strictly-smaller scan.
            let (share, bottleneck) = match (single, m_best) {
                (None, None) => break,
                (Some((v, l)), None) | (None, Some((v, l))) => (v, l),
                (Some((sv, sl)), Some((mv, ml))) => {
                    if sv < mv {
                        (sv, sl)
                    } else if mv < sv {
                        (mv, ml)
                    } else {
                        (sv, sl.min(ml))
                    }
                }
            };
            acc += share;
            // Drain: one subtraction per unsaturated crossing flow per
            // link (bit-identical to the specification's per-flow route
            // walks; see the type docs). Single-flow links record the
            // share in the history and replay it on their next read;
            // shared links drain eagerly (their values are read every
            // round by the candidate scan).
            self.shares.push(share);
            for i in 0..self.multi.len() {
                let l = self.multi[i] as usize;
                let mut n = self.active[l];
                while n > 0 {
                    self.remaining[l] -= share;
                    n -= 1;
                }
            }
            // Freeze the bottleneck's unsaturated flows at the shared
            // accumulated rate (order within the freeze commutes bitwise:
            // same rate value, integer decrements).
            for i in 0..self.link_flows[bottleneck].len() {
                let f = self.link_flows[bottleneck][i] as usize;
                if self.saturated[f] {
                    continue;
                }
                self.saturated[f] = true;
                self.rates[f] = acc;
                for j in 0..self.routes[f].len() {
                    let l = self.routes[f][j] as usize;
                    self.active[l] -= 1;
                }
            }
            // Numerical hygiene: clamp tiny negatives from float error.
            self.remaining[bottleneck] = self.remaining[bottleneck].max(0.0);
        }
        true
    }
}

#[cfg(test)]
impl MaxMinSolver {
    /// Recounts the link registration from the slots themselves: first as
    /// stored (every linked slot, parked ones included), then as a flush
    /// leaves it, which is what every reader sees (only registered slots).
    pub(crate) fn assert_links_consistent(&self) {
        for &slot in &self.free_slots {
            assert!(!self.linked[slot as usize], "free slot {slot} is linked");
            assert!(!self.parked.contains(&slot), "slot {slot} free and parked");
        }
        let linked: Vec<u32> = (0..self.routes.len() as u32)
            .filter(|&s| self.linked[s as usize])
            .collect();
        self.assert_registered(&linked);
        let mut flushed = self.clone();
        flushed.flush();
        for &slot in &flushed.parked {
            assert!(!flushed.linked[slot as usize], "flush left {slot} linked");
        }
        let registered: Vec<u32> = linked
            .into_iter()
            .filter(|s| !self.parked.contains(s))
            .collect();
        flushed.assert_registered(&registered);
    }

    /// Checks that the per-link registration counts exactly `slots`
    /// (ascending), each with a stall count matching the down links.
    fn assert_registered(&self, slots: &[u32]) {
        let n = self.capacities.len();
        let mut crossing = vec![0u32; n];
        let mut crossing_up = vec![0u32; n];
        let mut link_flows = vec![Vec::new(); n];
        for &slot in slots {
            let route = &self.routes[slot as usize];
            let stalls = route.iter().filter(|&&l| self.down[l as usize]).count();
            assert_eq!(
                self.stalled_by[slot as usize] as usize, stalls,
                "slot {slot}"
            );
            for &l in route {
                crossing[l as usize] += 1;
                crossing_up[l as usize] += u32::from(stalls == 0);
                link_flows[l as usize].push(slot);
            }
        }
        assert_eq!(self.crossing, crossing, "crossing");
        assert_eq!(self.crossing_up, crossing_up, "crossing_up");
        for (l, want) in link_flows.iter().enumerate() {
            let mut got = self.link_flows[l].clone();
            got.sort_unstable();
            assert_eq!(&got, want, "link_flows[{l}]");
        }
        let touched: Vec<u32> = (0..n as u32)
            .filter(|&l| crossing[l as usize] > 0)
            .collect();
        assert_eq!(self.touched, touched, "touched");
        let mut live = self.live_slots.clone();
        live.sort_unstable();
        assert_eq!(live, slots, "live_slots");
        for (i, &slot) in self.live_slots.iter().enumerate() {
            assert_eq!(self.live_pos[slot as usize] as usize, i, "live_pos");
        }
        for slot in 0..self.routes.len() as u32 {
            assert_eq!(self.linked[slot as usize], slots.contains(&slot), "linked");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-9;

    #[test]
    fn single_flow_gets_full_link() {
        let r = max_min_rates(&[10.0], &[vec![0]]);
        assert!((r[0] - 10.0).abs() < EPS);
    }

    #[test]
    fn two_flows_share_equally() {
        let r = max_min_rates(&[10.0], &[vec![0], vec![0]]);
        assert!((r[0] - 5.0).abs() < EPS);
        assert!((r[1] - 5.0).abs() < EPS);
    }

    #[test]
    fn empty_route_is_infinite() {
        let r = max_min_rates(&[10.0], &[vec![], vec![0]]);
        assert!(r[0].is_infinite());
        assert!((r[1] - 10.0).abs() < EPS);
    }

    #[test]
    fn classic_three_flow_example() {
        // Links: A (cap 10), B (cap 10).
        // f0 crosses A and B, f1 crosses A, f2 crosses B.
        // Max–min: all rates 5.
        let r = max_min_rates(&[10.0, 10.0], &[vec![0, 1], vec![0], vec![1]]);
        for &x in &r {
            assert!((x - 5.0).abs() < EPS, "rates {r:?}");
        }
    }

    #[test]
    fn asymmetric_bottleneck() {
        // Link A cap 2 carries f0; link B cap 10 carries f0 and f1.
        // f0 limited to 2 by A; f1 then gets the rest of B = 8.
        let r = max_min_rates(&[2.0, 10.0], &[vec![0, 1], vec![1]]);
        assert!((r[0] - 2.0).abs() < EPS);
        assert!((r[1] - 8.0).abs() < EPS);
    }

    #[test]
    fn no_flows() {
        let r = max_min_rates(&[1.0, 2.0], &[]);
        assert!(r.is_empty());
    }

    #[test]
    fn fair_share_estimate_lower_bounds_solved_rate() {
        // Link 0 (cap 12) carries three flows; link 1 (cap 2) carries one
        // of them. The estimate for the two-link flow is min(12/3, 2/1) = 2,
        // matching its solved rate; the single-link flows solve to 5 each,
        // above their estimate of 4.
        let mut s = MaxMinSolver::new(vec![12.0, 2.0]);
        let a = s.add_flow([0, 1]);
        let b = s.add_flow([0]);
        let c = s.add_flow([0]);
        assert!((s.fair_share_estimate([0, 1]) - 2.0).abs() < EPS);
        assert!((s.fair_share_estimate([0]) - 4.0).abs() < EPS);
        s.solve();
        for slot in [a, b, c] {
            let route = if slot == a { vec![0, 1] } else { vec![0] };
            assert!(
                s.rate(slot) >= s.fair_share_estimate(&route) - EPS,
                "estimate must never exceed the solved rate"
            );
        }
        // Empty route: no links crossed, unbounded estimate.
        assert!(s
            .fair_share_estimate(std::iter::empty::<usize>())
            .is_infinite());
        // Stalled flows are invisible: downing link 1 withdraws flow `a`
        // from link 0's reduced crossing count.
        s.set_link_down(1);
        assert!((s.fair_share_estimate([0]) - 6.0).abs() < EPS);
    }

    #[test]
    fn unused_links_ignored() {
        let r = max_min_rates(&[1.0, 100.0], &[vec![0]]);
        assert!((r[0] - 1.0).abs() < EPS);
    }

    #[test]
    fn many_flows_one_link() {
        let routes: Vec<Vec<usize>> = (0..100).map(|_| vec![0]).collect();
        let r = max_min_rates(&[50.0], &routes);
        for &x in &r {
            assert!((x - 0.5).abs() < EPS);
        }
    }

    #[test]
    #[should_panic(expected = "unknown link")]
    fn bad_route_panics() {
        let _ = max_min_rates(&[1.0], &[vec![3]]);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn bad_capacity_panics() {
        let _ = max_min_rates(&[0.0], &[vec![0]]);
    }

    /// Invariant check used by both unit and property tests: the allocation
    /// never oversubscribes a link and every finite-rate flow has at least
    /// one saturated link on its route (Pareto optimality / bottleneck
    /// property).
    pub(crate) fn assert_max_min_invariants(
        capacities: &[f64],
        routes: &[Vec<usize>],
        rates: &[f64],
    ) {
        let tol = 1e-6;
        // 1. Feasibility.
        let mut load = vec![0.0; capacities.len()];
        for (f, route) in routes.iter().enumerate() {
            for &l in route {
                load[l] += rates[f];
            }
        }
        for (l, &cap) in capacities.iter().enumerate() {
            assert!(
                load[l] <= cap * (1.0 + tol) + tol,
                "link {l} oversubscribed: load={} cap={}",
                load[l],
                cap
            );
        }
        // 2. Bottleneck property: every flow has a saturated link on its
        //    route where it has a maximal rate among that link's flows.
        for (f, route) in routes.iter().enumerate() {
            if route.is_empty() {
                assert!(rates[f].is_infinite());
                continue;
            }
            let has_bottleneck = route.iter().any(|&l| {
                let saturated = load[l] >= capacities[l] * (1.0 - tol) - tol;
                let maximal = routes
                    .iter()
                    .enumerate()
                    .filter(|(_, r2)| r2.contains(&l))
                    .all(|(g, _)| rates[g] <= rates[f] + tol);
                saturated && maximal
            });
            assert!(
                has_bottleneck,
                "flow {f} (rate {}) has no bottleneck link",
                rates[f]
            );
        }
    }

    #[test]
    fn down_link_stalls_crossing_flows_and_frees_capacity() {
        // f0 crosses both links, f1 only link 1. Baseline: f0=5, f1=5.
        let mut s = MaxMinSolver::new(vec![10.0, 10.0]);
        let f0 = s.add_flow([0, 1]);
        let f1 = s.add_flow([1]);
        s.solve();
        assert!((s.rate(f0) - 5.0).abs() < EPS);
        assert!((s.rate(f1) - 5.0).abs() < EPS);
        // Link 0 down: f0 stalls at exactly 0.0 and stops consuming link 1,
        // so f1 gets the whole link.
        s.set_link_down(0);
        assert!(s.is_link_down(0));
        assert_eq!(s.links_down(), 1);
        assert!(s.flow_stalled(f0));
        assert!(!s.flow_stalled(f1));
        s.solve();
        assert_eq!(s.rate(f0).to_bits(), 0.0f64.to_bits());
        assert!((s.rate(f1) - 10.0).abs() < EPS);
        // Recovery restores the baseline allocation bit-for-bit.
        s.set_link_up(0);
        assert_eq!(s.links_down(), 0);
        assert!(!s.flow_stalled(f0));
        s.solve();
        let spec = max_min_rates(&[10.0, 10.0], &[vec![0, 1], vec![1]]);
        assert_eq!(s.rate(f0).to_bits(), spec[0].to_bits());
        assert_eq!(s.rate(f1).to_bits(), spec[1].to_bits());
    }

    #[test]
    fn flow_added_on_down_link_starts_stalled() {
        let mut s = MaxMinSolver::new(vec![10.0, 10.0]);
        s.set_link_down(0);
        let f0 = s.add_flow([0, 1]);
        let f1 = s.add_flow([1]);
        assert!(s.flow_stalled(f0));
        s.solve();
        assert_eq!(s.rate(f0).to_bits(), 0.0f64.to_bits());
        assert!((s.rate(f1) - 10.0).abs() < EPS);
        s.set_link_up(0);
        s.solve();
        assert!((s.rate(f0) - 5.0).abs() < EPS);
        assert!((s.rate(f1) - 5.0).abs() < EPS);
    }

    #[test]
    fn overlapping_outages_stall_until_last_recovery() {
        let mut s = MaxMinSolver::new(vec![10.0, 10.0, 10.0]);
        let f = s.add_flow([0, 1, 2]);
        s.set_link_down(0);
        s.set_link_down(2);
        assert!(s.flow_stalled(f));
        s.set_link_up(0);
        assert!(s.flow_stalled(f), "still stalled by link 2");
        s.set_link_up(2);
        assert!(!s.flow_stalled(f));
        s.solve();
        assert!((s.rate(f) - 10.0).abs() < EPS);
    }

    #[test]
    fn degraded_link_matches_fresh_solve_at_scaled_capacity() {
        let mut s = MaxMinSolver::new(vec![8.0, 32.0]);
        let f0 = s.add_flow([0, 1]);
        let f1 = s.add_flow([1]);
        // Degrade link 1 to a quarter: it becomes the bottleneck.
        s.set_link_capacity_factor(1, 0.25);
        s.solve();
        let spec = max_min_rates(&[8.0, 8.0], &[vec![0, 1], vec![1]]);
        assert_eq!(s.rate(f0).to_bits(), spec[0].to_bits());
        assert_eq!(s.rate(f1).to_bits(), spec[1].to_bits());
        // Factor 1.0 restores the configured capacity exactly.
        s.set_link_capacity_factor(1, 1.0);
        s.solve();
        let spec = max_min_rates(&[8.0, 32.0], &[vec![0, 1], vec![1]]);
        assert_eq!(s.rate(f0).to_bits(), spec[0].to_bits());
        assert_eq!(s.rate(f1).to_bits(), spec[1].to_bits());
    }

    #[test]
    #[should_panic(expected = "already down")]
    fn double_down_panics() {
        let mut s = MaxMinSolver::new(vec![1.0]);
        s.set_link_down(0);
        s.set_link_down(0);
    }

    #[test]
    #[should_panic(expected = "is not down")]
    fn up_without_down_panics() {
        let mut s = MaxMinSolver::new(vec![1.0]);
        s.set_link_up(0);
    }

    #[test]
    #[should_panic(expected = "not registered")]
    fn double_remove_panics() {
        // A second removal while the first is still parked would let two
        // same-route adds revive one slot.
        let mut s = MaxMinSolver::new(vec![1.0]);
        let f = s.add_flow([0]);
        s.remove_flow(f);
        s.remove_flow(f);
    }

    #[test]
    #[should_panic(expected = "degrade factor")]
    fn bad_degrade_factor_panics() {
        let mut s = MaxMinSolver::new(vec![1.0]);
        s.set_link_capacity_factor(0, 0.0);
    }

    #[test]
    fn same_route_swap_skips_the_solve() {
        let caps = vec![10.0, 6.0, 30.0];
        let mut s = MaxMinSolver::new(caps.clone());
        let a = s.add_flow([0, 2]);
        let b = s.add_flow([1, 2]);
        let c = s.add_flow([1, 2]);
        assert!(s.solve(), "first solve runs");
        let rate_b = s.rate(b);
        s.remove_flow(b);
        let d = s.add_flow([1, 2]);
        assert!(!s.solve(), "a same-route swap leaves every rate in place");
        assert_eq!(s.rate(d).to_bits(), rate_b.to_bits());
        let spec = max_min_rates(&caps, &[vec![0, 2], vec![1, 2], vec![1, 2]]);
        for (slot, want) in [a, d, c].into_iter().zip(spec) {
            assert_eq!(s.rate(slot).to_bits(), want.to_bits());
        }
        // Several removes before several adds, matched in any order.
        s.remove_flow(a);
        s.remove_flow(c);
        let e = s.add_flow([1, 2]);
        let f = s.add_flow([0, 2]);
        assert!(!s.solve());
        let spec = max_min_rates(&caps, &[vec![1, 2], vec![1, 2], vec![0, 2]]);
        for (slot, want) in [d, e, f].into_iter().zip(spec) {
            assert_eq!(s.rate(slot).to_bits(), want.to_bits());
        }
        assert_eq!(s.flow_count(), 3);
        assert!(!s.solve(), "nothing changed since");
    }

    #[test]
    fn link_event_no_flow_crosses_skips_the_solve() {
        let caps = vec![10.0, 6.0, 30.0];
        let mut s = MaxMinSolver::new(caps);
        let a = s.add_flow([0]);
        assert!(s.solve());
        s.set_link_down(1);
        assert!(!s.solve(), "no flow crosses link 1");
        assert!(s.is_link_down(1));
        s.set_link_up(1);
        s.set_link_capacity_factor(2, 0.5);
        assert!(!s.solve(), "no flow crosses links 1 or 2");
        assert_eq!(s.rate(a).to_bits(), 10.0f64.to_bits());
        // The link state was still recorded: a flow that arrives later
        // sees the degraded capacity, and one over a down link stalls.
        let b = s.add_flow([2]);
        assert!(s.solve());
        assert_eq!(s.rate(b).to_bits(), 15.0f64.to_bits());
        s.set_link_down(1);
        let c = s.add_flow([1]);
        assert!(s.solve());
        assert!(s.flow_stalled(c));
        assert_eq!(s.rate(c).to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn route_change_or_link_event_forces_a_solve() {
        let caps = vec![10.0, 6.0, 30.0];
        let mut s = MaxMinSolver::new(caps.clone());
        let a = s.add_flow([0, 2]);
        let b = s.add_flow([1, 2]);
        assert!(s.solve());
        // A different route.
        s.remove_flow(b);
        let c = s.add_flow([2]);
        assert!(s.solve());
        let spec = max_min_rates(&caps, &[vec![0, 2], vec![2]]);
        assert_eq!(s.rate(a).to_bits(), spec[0].to_bits());
        assert_eq!(s.rate(c).to_bits(), spec[1].to_bits());
        // A removal not replaced.
        s.remove_flow(c);
        assert!(s.solve());
        assert_eq!(s.rate(a).to_bits(), 10.0f64.to_bits());
        // A same-route swap alongside a link going down, then up.
        s.remove_flow(a);
        let d = s.add_flow([0, 2]);
        s.set_link_down(0);
        assert!(s.solve());
        assert_eq!(s.rate(d).to_bits(), 0.0f64.to_bits());
        s.set_link_up(0);
        assert!(s.solve());
        assert_eq!(s.rate(d).to_bits(), 10.0f64.to_bits());
        // A capacity change.
        s.set_link_capacity_factor(0, 0.5);
        assert!(s.solve());
        assert_eq!(s.rate(d).to_bits(), 5.0f64.to_bits());
        // A revived slot picks up link state changed while it was parked.
        s.remove_flow(d);
        s.set_link_down(2);
        let e = s.add_flow([0, 2]);
        assert!(s.flow_stalled(e));
        assert!(s.solve());
        assert_eq!(s.rate(e).to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn invariants_on_examples() {
        let cases: Vec<(Vec<f64>, Vec<Vec<usize>>)> = vec![
            (vec![10.0], vec![vec![0], vec![0], vec![0]]),
            (vec![10.0, 10.0], vec![vec![0, 1], vec![0], vec![1]]),
            (vec![2.0, 10.0], vec![vec![0, 1], vec![1]]),
            (
                vec![5.0, 7.0, 3.0],
                vec![vec![0, 1, 2], vec![0], vec![1], vec![2], vec![0, 2]],
            ),
        ];
        for (caps, routes) in cases {
            let rates = max_min_rates(&caps, &routes);
            assert_max_min_invariants(&caps, &routes, &rates);
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::assert_max_min_invariants;
    use super::*;
    use proptest::prelude::*;

    fn arb_case() -> impl Strategy<Value = (Vec<f64>, Vec<Vec<usize>>)> {
        // 1..8 links with capacities 0.5..100, 0..12 flows crossing random
        // non-empty subsets.
        (1usize..8).prop_flat_map(|n_links| {
            let caps = proptest::collection::vec(0.5f64..100.0, n_links);
            let route = proptest::collection::btree_set(0..n_links, 1..=n_links)
                .prop_map(|s| s.into_iter().collect::<Vec<_>>());
            let flows = proptest::collection::vec(route, 0..12);
            (caps, flows)
        })
    }

    proptest! {
        #[test]
        fn max_min_invariants_hold((caps, routes) in arb_case()) {
            let rates = max_min_rates(&caps, &routes);
            assert_max_min_invariants(&caps, &routes, &rates);
        }

        #[test]
        fn rates_positive((caps, routes) in arb_case()) {
            let rates = max_min_rates(&caps, &routes);
            for (f, r) in rates.iter().enumerate() {
                prop_assert!(*r > 0.0, "flow {} got non-positive rate {}", f, r);
            }
        }

        #[test]
        fn deterministic((caps, routes) in arb_case()) {
            let a = max_min_rates(&caps, &routes);
            let b = max_min_rates(&caps, &routes);
            prop_assert_eq!(a, b);
        }

        /// The hot-path solver is bit-identical to the specification —
        /// compared via `to_bits`, not approximately — across flow
        /// add/remove churn on one registration state (stale-state
        /// hazards: slot reuse, touched-list maintenance, scratch reuse).
        #[test]
        fn solver_matches_spec_bitwise(
            (caps, routes) in (2usize..8).prop_flat_map(|n_links| {
                let caps = proptest::collection::vec(0.5f64..100.0, n_links);
                let route = proptest::collection::btree_set(0..n_links, 1..=n_links)
                    .prop_map(|s| s.into_iter().collect::<Vec<_>>());
                let flows = proptest::collection::vec(route, 0..24);
                (caps, flows)
            }),
            removals in proptest::collection::vec(0u8..2, 24),
        ) {
            let mut solver = MaxMinSolver::new(caps.clone());
            let mut live: Vec<(u32, Vec<usize>)> = Vec::new();
            let check = |solver: &mut MaxMinSolver, live: &[(u32, Vec<usize>)]| {
                let spec_routes: Vec<Vec<usize>> =
                    live.iter().map(|(_, r)| r.clone()).collect();
                let spec = max_min_rates(&caps, &spec_routes);
                solver.solve();
                for (f, (slot, _)) in live.iter().enumerate() {
                    let got = solver.rate(*slot);
                    assert_eq!(
                        spec[f].to_bits(),
                        got.to_bits(),
                        "flow {f} differs: {} vs {got}",
                        spec[f]
                    );
                }
            };
            for (i, route) in routes.iter().enumerate() {
                let slot = solver.add_flow(route);
                live.push((slot, route.clone()));
                check(&mut solver, &live);
                // Interleave removals so slots get reused mid-sequence.
                if removals[i % removals.len()] == 1 && !live.is_empty() {
                    let victim = i % live.len();
                    let (slot, _) = live.remove(victim);
                    solver.remove_flow(slot);
                    check(&mut solver, &live);
                }
            }
            while let Some((slot, _)) = live.pop() {
                solver.remove_flow(slot);
                check(&mut solver, &live);
            }
        }

        /// Bursts of removes and adds with no solve in between — same-route
        /// swaps (the parked-slot path), route changes, several removes
        /// before several adds — interleaved with link down/up and degrade
        /// toggles and with reads of the link registration. After every op
        /// the registration recounts exactly (as stored and as a flush
        /// leaves it), and each read equals the live flows' counts. After
        /// each burst the solver is bit-identical to the specification
        /// over the live non-stalled flows, reports no work only when the
        /// route multiset and the state of every link a flow crosses are
        /// unchanged, and always skips a burst of pure same-route swaps.
        #[test]
        fn solver_churn_without_intermediate_solves(
            (caps, pool, initial) in (2usize..7).prop_flat_map(|n_links| {
                let caps = proptest::collection::vec(0.5f64..100.0, n_links);
                let route = proptest::collection::btree_set(0..n_links, 1..=n_links)
                    .prop_map(|s| s.into_iter().collect::<Vec<_>>());
                let pool = proptest::collection::vec(route, 1..5);
                let initial = proptest::collection::vec(0usize..64, 1..12);
                (caps, pool, initial)
            }),
            // Per op: (kind, a, b). 0 = same-route swap, 1 = swap onto a
            // pool route, 2 = several removes then several adds, 3 = add,
            // 4 = remove, 5 = toggle link down/up, 6 = toggle degrade,
            // 7 = read the flow count, the busy links or the per-link
            // estimates (one reader per op, so each one's flush counts).
            bursts in proptest::collection::vec(
                proptest::collection::vec((0u8..8, 0usize..64, 0usize..64), 1..6),
                1..12,
            ),
        ) {
            let n_links = caps.len();
            let mut solver = MaxMinSolver::new(caps.clone());
            let mut live: Vec<(u32, Vec<usize>)> = Vec::new();
            let mut down = vec![false; n_links];
            let mut degraded = vec![false; n_links];
            for &k in &initial {
                let route = pool[k % pool.len()].clone();
                live.push((solver.add_flow(&route), route));
            }
            solver.solve();
            let sorted_routes = |live: &[(u32, Vec<usize>)]| {
                let mut r: Vec<Vec<usize>> = live.iter().map(|(_, r)| r.clone()).collect();
                r.sort();
                r
            };
            let mut solved_routes = sorted_routes(&live);
            for burst in &bursts {
                // Whether a link event hit a link that a live flow, or one
                // removed in this burst (a parked slot), crosses.
                let mut link_event = false;
                let mut gone: Vec<Vec<usize>> = Vec::new();
                let only_same_route_swaps = burst.iter().all(|&(kind, _, _)| kind == 0);
                for &(kind, a, b) in burst {
                    match kind {
                        0 | 1 if !live.is_empty() => {
                            let (slot, route) = live.swap_remove(a % live.len());
                            solver.remove_flow(slot);
                            gone.push(route.clone());
                            let route = if kind == 0 { route } else { pool[b % pool.len()].clone() };
                            live.push((solver.add_flow(&route), route));
                        }
                        2 => {
                            let n = (1 + a % 3).min(live.len());
                            let mut removed = Vec::new();
                            for j in 0..n {
                                let (slot, route) = live.swap_remove((a + j) % live.len());
                                solver.remove_flow(slot);
                                gone.push(route.clone());
                                removed.push(route);
                            }
                            // Re-add in reverse; an odd `b` replaces the
                            // last route with a pool route.
                            if b % 2 == 1 {
                                if let Some(last) = removed.first_mut() {
                                    *last = pool[b % pool.len()].clone();
                                }
                            }
                            while let Some(route) = removed.pop() {
                                live.push((solver.add_flow(&route), route));
                            }
                        }
                        3 => {
                            let route = pool[b % pool.len()].clone();
                            live.push((solver.add_flow(&route), route));
                        }
                        4 if !live.is_empty() => {
                            let (slot, route) = live.swap_remove(a % live.len());
                            solver.remove_flow(slot);
                            gone.push(route);
                        }
                        5 => {
                            let l = b % n_links;
                            link_event |= live.iter().map(|(_, r)| r).chain(&gone).any(|r| r.contains(&l));
                            if down[l] {
                                solver.set_link_up(l);
                            } else {
                                solver.set_link_down(l);
                            }
                            down[l] = !down[l];
                        }
                        6 => {
                            let l = b % n_links;
                            link_event |= live.iter().map(|(_, r)| r).chain(&gone).any(|r| r.contains(&l));
                            degraded[l] = !degraded[l];
                            solver.set_link_capacity_factor(l, if degraded[l] { 0.25 } else { 1.0 });
                        }
                        7 => {
                            let crossed = |l: usize| live.iter().filter(move |(_, r)| r.contains(&l));
                            match a % 3 {
                                0 => prop_assert_eq!(solver.flow_count(), live.len()),
                                1 => {
                                    let busy = (0..n_links).filter(|&l| crossed(l).next().is_some());
                                    prop_assert_eq!(solver.busy_links(), busy.count());
                                }
                                _ => {
                                    for l in 0..n_links {
                                        let up = crossed(l).filter(|(_, r)| r.iter().all(|&k| !down[k]));
                                        let cap = if degraded[l] { caps[l] * 0.25 } else { caps[l] };
                                        let want = cap / f64::from(up.count().max(1) as u32);
                                        prop_assert_eq!(
                                            solver.fair_share_estimate([l]).to_bits(),
                                            want.to_bits()
                                        );
                                    }
                                }
                            }
                        }
                        _ => {}
                    }
                    solver.assert_links_consistent();
                }
                let ran = solver.solve();
                let now_routes = sorted_routes(&live);
                if !ran {
                    prop_assert!(!link_event, "skipped a solve after an event on a used link");
                    prop_assert_eq!(&now_routes, &solved_routes);
                }
                if only_same_route_swaps {
                    prop_assert!(!ran, "a burst of same-route swaps must skip the solve");
                }
                solved_routes = now_routes;
                let eff: Vec<f64> = caps
                    .iter()
                    .zip(&degraded)
                    .map(|(&c, &d)| if d { c * 0.25 } else { c })
                    .collect();
                let stalled = |r: &[usize]| r.iter().any(|&l| down[l]);
                let spec_routes: Vec<Vec<usize>> = live
                    .iter()
                    .filter(|(_, r)| !stalled(r))
                    .map(|(_, r)| r.clone())
                    .collect();
                let spec = max_min_rates(&eff, &spec_routes);
                let mut k = 0;
                for (slot, route) in &live {
                    let got = solver.rate(*slot);
                    prop_assert_eq!(solver.flow_stalled(*slot), stalled(route));
                    if stalled(route) {
                        prop_assert_eq!(got.to_bits(), 0.0f64.to_bits());
                    } else {
                        prop_assert_eq!(
                            spec[k].to_bits(),
                            got.to_bits(),
                            "slot {} differs: {} vs {}",
                            slot,
                            spec[k],
                            got
                        );
                        k += 1;
                    }
                }
            }
        }

        /// Under link down/up and degrade churn, the solver stays
        /// bit-identical to a fresh specification solve over the
        /// *effective* capacities and the *non-stalled* flows, and every
        /// stalled flow reads exactly `0.0`.
        #[test]
        fn solver_matches_spec_under_link_faults(
            (caps, routes) in (2usize..8).prop_flat_map(|n_links| {
                let caps = proptest::collection::vec(0.5f64..100.0, n_links);
                let route = proptest::collection::btree_set(0..n_links, 1..=n_links)
                    .prop_map(|s| s.into_iter().collect::<Vec<_>>());
                let flows = proptest::collection::vec(route, 1..16);
                (caps, flows)
            }),
            // Per step: (target link selector, op): 0 = toggle down/up,
            // 1 = degrade to 0.25, 2 = restore factor 1.0.
            ops in proptest::collection::vec((0usize..8, 0u8..3), 1..24),
        ) {
            let n_links = caps.len();
            let mut solver = MaxMinSolver::new(caps.clone());
            let mut live: Vec<(u32, Vec<usize>)> = Vec::new();
            let mut down = vec![false; n_links];
            let mut eff = caps.clone();
            let check = |solver: &mut MaxMinSolver,
                         live: &[(u32, Vec<usize>)],
                         down: &[bool],
                         eff: &[f64]| {
                let stalled =
                    |r: &[usize]| r.iter().any(|&l| down[l]);
                let spec_routes: Vec<Vec<usize>> = live
                    .iter()
                    .filter(|(_, r)| !stalled(r))
                    .map(|(_, r)| r.clone())
                    .collect();
                let spec = max_min_rates(eff, &spec_routes);
                solver.solve();
                solver.assert_links_consistent();
                let mut k = 0;
                for (slot, route) in live {
                    let got = solver.rate(*slot);
                    if stalled(route) {
                        assert!(solver.flow_stalled(*slot));
                        assert_eq!(got.to_bits(), 0.0f64.to_bits());
                    } else {
                        assert!(!solver.flow_stalled(*slot));
                        assert_eq!(
                            spec[k].to_bits(),
                            got.to_bits(),
                            "slot {slot} differs: {} vs {got}",
                            spec[k]
                        );
                        k += 1;
                    }
                }
            };
            // Interleave flow registration with link-state churn.
            let mut ri = 0;
            for &(sel, op) in &ops {
                if ri < routes.len() {
                    let slot = solver.add_flow(&routes[ri]);
                    live.push((slot, routes[ri].clone()));
                    ri += 1;
                    solver.assert_links_consistent();
                }
                let l = sel % n_links;
                match op {
                    0 => {
                        if down[l] {
                            solver.set_link_up(l);
                            down[l] = false;
                        } else {
                            solver.set_link_down(l);
                            down[l] = true;
                        }
                    }
                    1 => {
                        solver.set_link_capacity_factor(l, 0.25);
                        eff[l] = caps[l] * 0.25;
                    }
                    _ => {
                        solver.set_link_capacity_factor(l, 1.0);
                        eff[l] = caps[l];
                    }
                }
                solver.assert_links_consistent();
                check(&mut solver, &live, &down, &eff);
            }
            // Drain everything with some links still faulted.
            while let Some((slot, _)) = live.pop() {
                solver.remove_flow(slot);
                solver.assert_links_consistent();
                check(&mut solver, &live, &down, &eff);
            }
        }
    }
}
