//! The churn subsystem of the engine: the stochastic fault processes of
//! workers, data servers and links, the correlated crash-burst process,
//! and every open fault window.
//!
//! The engine holds a [`Churn`] only when the fault config injects
//! something, so a fault-free run never reaches any of this state.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use gridsched_des::rng::{derive_seed, Stream};
use gridsched_des::{SimDuration, SimTime};
use gridsched_faults::{Entity, FaultConfig, FaultTimeline};
use gridsched_telemetry::{Counter, Telemetry};

use crate::engine::Event;

/// One kind of fault-prone entity (workers, servers or links), by index.
struct Entities {
    /// Each entity's stochastic churn process; `None` when no MTBF drives
    /// that kind and only scripted events reach it.
    timelines: Vec<Option<FaultTimeline>>,
    /// Each entity's open fault window: when it opened, and whether the
    /// impairment is a hard outage (only a link can be degraded instead).
    windows: Vec<Option<(SimTime, bool)>>,
}

impl Entities {
    fn new(n: usize, process: impl FnMut(usize) -> Option<FaultTimeline>) -> Self {
        Entities {
            timelines: (0..n).map(process).collect(),
            windows: vec![None; n],
        }
    }
}

/// Runtime state of fault injection.
pub(crate) struct Churn {
    workers: Entities,
    servers: Entities,
    links: Entities,
    /// Correlated crash-burst process (`None` = independent crashes only).
    burst: Option<BurstState>,
    /// Capacity factor of a stochastic link fault: with one set the link
    /// process degrades links instead of cutting them. Scripted link and
    /// partition events are always hard.
    degrade: Option<f64>,
    /// The `net.link.outages` counter.
    pub(crate) outages: Counter,
}

impl Churn {
    /// The churn state of a run with `workers` workers, `sites` data
    /// servers and `links` links under fault config `fc`, or `None` when
    /// `fc` injects nothing.
    pub(crate) fn new(
        fc: &FaultConfig,
        seed: u64,
        (workers, sites, links): (usize, usize, usize),
        telemetry: &Telemetry,
    ) -> Option<Self> {
        if fc.is_inert() {
            return None;
        }
        Some(Churn {
            workers: Entities::new(workers, |w| {
                fc.worker_mtbf_s.map(|mtbf| {
                    FaultTimeline::new(seed, Entity::Worker(w), mtbf, fc.worker_mttr_s)
                        .with_repair_shape(fc.worker_mttr_shape)
                })
            }),
            servers: Entities::new(sites, |s| {
                fc.server_mtbf_s.map(|mtbf| {
                    FaultTimeline::new(seed, Entity::Server(s), mtbf, fc.server_mttr_s)
                        .with_repair_shape(fc.server_mttr_shape)
                })
            }),
            links: Entities::new(links, |l| {
                fc.link_mtbf_s
                    .map(|mtbf| FaultTimeline::new(seed, Entity::Link(l), mtbf, fc.link_mttr_s))
            }),
            burst: fc
                .burst_rate_s
                .map(|rate| BurstState::new(seed, rate, fc.burst_size)),
            degrade: fc.link_degrade_factor,
            outages: telemetry.counter("net.link.outages"),
        })
    }

    fn entities(&mut self, entity: Entity) -> (&mut Entities, usize) {
        match entity {
            Entity::Worker(i) => (&mut self.workers, i),
            Entity::Server(i) => (&mut self.servers, i),
            Entity::Link(i) => (&mut self.links, i),
        }
    }

    /// `entity`'s next stochastic churn event — its failure when `fail`,
    /// else its repair — and the delay until it, or `None` when no
    /// process drives the entity.
    pub(crate) fn next(&mut self, entity: Entity, fail: bool) -> Option<(SimDuration, Event)> {
        let hard = self.degrade.is_none();
        let (kind, i) = self.entities(entity);
        let timeline = kind.timelines[i].as_mut()?;
        let delay = if fail {
            timeline.time_to_failure()
        } else {
            timeline.time_to_repair()
        };
        let event = match (entity, fail) {
            (Entity::Worker(w), true) => Event::WorkerCrash(w),
            (Entity::Worker(w), false) => Event::WorkerRecover(w),
            (Entity::Server(s), true) => Event::ServerFail(s),
            (Entity::Server(s), false) => Event::ServerRecover(s),
            (Entity::Link(link), true) => Event::LinkFail { link, hard },
            (Entity::Link(link), false) => Event::LinkRecover { link },
        };
        Some((delay, event))
    }

    /// The delay until the next burst strike, or `None` without bursts.
    pub(crate) fn next_burst(&mut self) -> Option<SimDuration> {
        self.burst.as_mut().map(BurstState::next_gap)
    }

    /// A burst strikes: the site it hits, uniform over `sites`, and how
    /// many workers it crashes there at most.
    pub(crate) fn strike(&mut self, sites: usize) -> (usize, usize) {
        let burst = self
            .burst
            .as_mut()
            .expect("burst event implies the process");
        (burst.rng.gen_range(0..sites), burst.size as usize)
    }

    /// `entity`'s open fault window (see [`Entities::windows`]).
    pub(crate) fn window(&mut self, entity: Entity) -> &mut Option<(SimTime, bool)> {
        let (kind, i) = self.entities(entity);
        &mut kind.windows[i]
    }

    /// The capacity factor of a degraded (soft) link fault.
    pub(crate) fn degrade_factor(&self) -> f64 {
        self.degrade
            .expect("soft link fault implies a degrade factor")
    }
}

/// The correlated crash-burst process. Own decorrelated RNG stream —
/// mirroring the per-entity [`FaultTimeline`] derivation with a
/// burst-specific tag — so enabling bursts never perturbs the independent
/// crash/repair schedules.
struct BurstState {
    rng: StdRng,
    /// Mean seconds between bursts (exponential interarrival).
    rate_s: f64,
    /// Workers crashed per strike (capped by the site's live population).
    size: u32,
}

/// Seed-derivation tag of the burst process (the per-entity tags use
/// `0x1…`/`0x2…` for workers/servers).
const BURST_STREAM_TAG: u64 = 0x3_0000_0000;

impl BurstState {
    fn new(master_seed: u64, rate_s: f64, size: u32) -> Self {
        let base = derive_seed(master_seed, Stream::Faults);
        let seed = derive_seed(base ^ BURST_STREAM_TAG, Stream::Faults);
        BurstState {
            rng: StdRng::seed_from_u64(seed),
            rate_s,
            size,
        }
    }

    /// Time from now until the next burst (inverse-CDF exponential, one
    /// uniform per draw like [`FaultTimeline`]).
    fn next_gap(&mut self) -> SimDuration {
        let u: f64 = self.rng.gen();
        SimDuration::from_secs(-self.rate_s * (1.0 - u).ln())
    }
}
