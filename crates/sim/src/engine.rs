//! The discrete-event grid simulation engine.
//!
//! Implements the execution model of §2.2 of the paper:
//!
//! * an idle worker asks the global scheduler for work (worker-centric
//!   strategies decide *now*; the task-centric baseline serves its
//!   pre-computed queues);
//! * the assigned task issues **one batch file request** to the site's
//!   data server;
//! * the data server serves requests **FIFO, one at a time**: it determines
//!   which files are missing *at service time*, pins the present ones, and
//!   fetches the missing ones sequentially from the external file server
//!   over the flow-level network (max–min fair sharing against every other
//!   site's concurrent transfers);
//! * when all files are local the worker computes for
//!   `flops / speed` seconds, then becomes idle again;
//! * completions may cancel replica executions (storage affinity), which
//!   aborts queued requests, in-flight transfers or running computations.
//!
//! The engine is fully deterministic given the [`SimConfig`] (including
//! seeds).
//!
//! ## Fault injection
//!
//! With an active [`gridsched_faults::FaultConfig`], the engine also
//! drives churn through the model:
//!
//! * **worker crashes** abort the worker's execution (queued request,
//!   in-flight transfer or running computation), hand the in-flight task
//!   back to the scheduler ([`Scheduler::on_worker_lost`]) and take the
//!   worker out of the pool until its repair completes;
//! * **data-server outages** lose every unpinned cached file, abort the
//!   active batch (its request is requeued and re-served after repair)
//!   and freeze the server's queue for the outage;
//! * under active faults a scheduler's `Finished` verdict parks the worker
//!   instead of retiring it — a fault may requeue work at any time.
//!
//! All of it lives in one optional subsystem, `Churn` (`crate::churn`):
//! the worker, server and link churn processes, the crash-burst process,
//! every open fault window and the link fault mode. Each handler re-arms
//! its entity through one `rearm` and books downtime through one
//! `close_window`, which also closes the windows still open at the end.
//! An inert fault config (or none) builds no `Churn`, which leaves the
//! engine byte-identical to the fault-free model;
//! `tests/fault_injection.rs` property-tests this.
//!
//! ## Interrupted work
//!
//! Four events dissolve a site's active batch, each through one
//! `dissolve_batch`: a replica cancel or worker crash that tears down the
//! batch's execution, a data-server outage, and a fetch whose transfer
//! guard has spent its retries. The dissolve aborts the in-flight attempt
//! (if any) and books the bytes it delivered, stands the guard down,
//! books the service time as transfer time, unpins the batch's files and
//! closes the `staging` span. Then the teardown restarts service, the
//! outage requeues the request at the head of the queue, and the spent
//! guard hands the task back. A crash and a spent guard hand the lost
//! execution back to the scheduler through one `lose_execution`, and every
//! image write or restore fetch, completed or aborted, ends through one
//! `end_ckpt_flow`.
//!
//! ## Subsystems
//!
//! Each extension of the paper's model is an optional subsystem that owns
//! its state and instruments and exists only when configured: `Churn`, the
//! transfer guard `XferGuard`, `Checkpointing`, the [`ControlPlane`] and
//! the replication pushes. The engine performs every side effect they
//! decide on: flows, events, spans, ledger entries and wake-ups.

use std::collections::{BTreeSet, VecDeque};
use std::fmt::Write as _;
use std::sync::Arc;

use gridsched_core::GridEnv;
use gridsched_core::{
    Assignment, CapController, ControlDirective, ControlPlane, ReplicaThrottle, Scheduler, SiteId,
    StorageAffinity, StrategyKind, Sufferage, WorkerCentric, WorkerId, Workqueue,
};
use gridsched_des::rng::{rng_for, Stream};
use gridsched_des::{EventHandle, Schedule, SimDuration, SimTime};
use gridsched_faults::{Entity, FaultKind};
use gridsched_net::{FlowId, NetSim};
use gridsched_storage::SiteStore;
use gridsched_telemetry::{
    expose, Counter, DigestFold, Histogram, MetricsServer, ProbeSample, SiteProbe, Telemetry, Track,
};
use gridsched_topology::{generate, EdgeId, Route};
use gridsched_workload::{FileId, TaskId};

use crate::checkpointing::{Checkpointing, Progress};
use crate::churn::Churn;
use crate::config::SimConfig;
use crate::guard::XferGuard;
use crate::metrics::{MetricsReport, SiteMetrics};
use crate::replication::ReplicationState;

#[derive(Debug, Clone, Copy)]
pub(crate) enum Event {
    /// Poll the scheduler for this (flat-indexed) worker.
    WorkerIdle(usize),
    /// The network says this flow completed.
    FlowDone(FlowId),
    /// A worker finished computing a task.
    ComputeDone {
        worker: usize,
        task: TaskId,
        generation: u64,
    },
    /// Fault injection: this (flat-indexed) worker crashes.
    WorkerCrash(usize),
    /// Fault injection: this worker's repair completes.
    WorkerRecover(usize),
    /// Fault injection: this site's data server goes down (file loss).
    ServerFail(usize),
    /// Fault injection: this site's data server comes back.
    ServerRecover(usize),
    /// Checkpointing: this worker's compute segment ended — commit the
    /// progress and write an image.
    CheckpointDue { worker: usize, generation: u64 },
    /// Fault injection: a correlated crash burst strikes one site (drawn
    /// at dispatch time from the burst process's own RNG stream).
    BurstStrike,
    /// Fault injection: a backbone link fails — hard (flows stall) or
    /// degraded (capacity × the configured factor).
    LinkFail { link: usize, hard: bool },
    /// Fault injection: the link's repair completes.
    LinkRecover { link: usize },
    /// Transfer guard: `site`'s in-flight batch fetch blew its deadline.
    /// `epoch` stamps the arming that scheduled it (stale on a mismatch).
    TransferTimeout { site: usize, epoch: u64 },
    /// Transfer guard: `site`'s backoff elapsed — re-issue the fetch.
    TransferRetry { site: usize, epoch: u64 },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WorkerState {
    Idle,
    WaitingData,
    /// Fetching a checkpoint image from another site before resuming
    /// (checkpointing only; input files are already pinned locally).
    Restoring,
    Computing,
    /// Scheduler said [`Assignment::Wait`]; re-polled after the next
    /// assignment or completion.
    Parked,
    /// Crashed (fault injection); comes back via [`Event::WorkerRecover`].
    Down,
    Done,
}

#[derive(Debug)]
struct RunningTask {
    task: TaskId,
    /// Whether this execution was launched as a replica
    /// ([`Assignment::Replicate`]) — drives the replica accounting split
    /// (completed vs cancelled vs fault-lost) and, under an active replica
    /// throttle, the targeted wake-ups when the execution ends.
    is_replica: bool,
    /// Files currently pinned on behalf of this execution.
    pinned: Vec<FileId>,
    compute_handle: Option<EventHandle>,
    /// When the current compute segment started (for wasted-compute
    /// accounting on aborts); `None` while stalled writing a checkpoint.
    compute_started: Option<SimTime>,
    // --- checkpoint/restart bookkeeping (all zero/None when
    // checkpointing is off) ---
    /// Flops already completed: restored progress plus segments committed
    /// this execution.
    progress_flops: f64,
    /// Compute-seconds embodied in `progress_flops` (across executions).
    progress_s: f64,
    /// Progress held by the latest durable image of this task — what a
    /// crash does *not* waste.
    durable_flops: f64,
    /// Compute-seconds held by the latest durable image.
    durable_s: f64,
    /// In-flight checkpoint image write or restore fetch: the flow, when
    /// it started (its stall is overhead) and, for a write, the image.
    ckpt_flow: Option<(FlowId, SimTime, Option<Progress>)>,
}

impl RunningTask {
    /// A fresh execution of `task`, which reads `files` input files.
    fn new(task: TaskId, is_replica: bool, files: usize) -> Self {
        RunningTask {
            task,
            is_replica,
            pinned: Vec::with_capacity(files),
            compute_handle: None,
            compute_started: None,
            progress_flops: 0.0,
            progress_s: 0.0,
            durable_flops: 0.0,
            durable_s: 0.0,
            ckpt_flow: None,
        }
    }
}

#[derive(Debug)]
struct Worker {
    id: WorkerId,
    speed_flops: f64,
    state: WorkerState,
    generation: u64,
    current: Option<RunningTask>,
}

impl Worker {
    /// The execution this worker is running.
    fn running(&mut self) -> &mut RunningTask {
        self.current.as_mut().expect("worker runs a task")
    }

    /// The task this worker is running.
    fn task(&self) -> TaskId {
        self.current.as_ref().expect("worker runs a task").task
    }
}

#[derive(Debug)]
struct BatchRequest {
    worker: usize,
    /// The worker's generation when the request was enqueued. Cancelled
    /// executions leave their entry in the queue (removal would be an
    /// O(queue) scan — ruinous under replica storms at 10⁵ workers); a
    /// generation mismatch at pop time identifies it as stale, which is
    /// behaviourally identical to eager removal because a skipped entry
    /// consumes no service time.
    generation: u64,
    enqueued_at: SimTime,
}

#[derive(Debug)]
struct ActiveBatch {
    worker: usize,
    service_start: SimTime,
    /// Missing files still to fetch, in task order.
    to_fetch: VecDeque<FileId>,
    /// The in-flight file, if any.
    current: Option<(FileId, FlowId)>,
}

#[derive(Debug, Default)]
struct DataServer {
    queue: VecDeque<BatchRequest>,
    active: Option<ActiveBatch>,
    /// Fault injection: the server is down and serves nothing.
    down: bool,
}

#[derive(Debug, Clone, Copy)]
enum FlowPurpose {
    /// A file of the active batch at `site`.
    Batch { site: usize },
    /// A proactive replication push of `file` to `site`.
    Replication { site: usize, file: FileId },
    /// A checkpoint image write from `worker` to its site's data server.
    Checkpoint { worker: usize },
    /// A checkpoint image fetch for `worker`'s resumed task from
    /// `from_site`'s data server.
    Restore { worker: usize, from_site: usize },
}

/// One deterministic simulation run. See the [crate docs](crate) for an
/// example.
pub struct GridSim {
    config: SimConfig,
    /// Shared per-site routes to the file server: flows borrow these
    /// instead of cloning a `Route` per transfer (engine hot path). The
    /// full topology is dropped after construction — only the routes are
    /// needed at run time.
    site_routes: Vec<Arc<Route>>,
    schedule: Schedule<Event>,
    /// The fluid network; each flow is tagged with what it carries.
    net: NetSim<FlowPurpose>,
    stores: Vec<SiteStore>,
    scheduler: Box<dyn Scheduler>,
    workers: Vec<Worker>,
    servers: Vec<DataServer>,
    /// Flat indices of workers in [`WorkerState::Parked`], grouped by
    /// site — lets [`GridSim::wake_parked`] run in O(parked) instead of
    /// scanning every worker on every completion, and lets the replica
    /// throttle hand a freed site-budget slot to exactly one parked worker
    /// of that site ([`GridSim::wake_one_parked`]) instead of re-polling
    /// the entire parked population (ruinous at 10⁵ workers).
    parked: Vec<BTreeSet<usize>>,
    /// Total entries across `parked` (stale entries included): the `== 0`
    /// fast path keeps [`GridSim::wake_parked`] from walking all S per-site
    /// sets on every assignment/completion when nothing is parked — the
    /// common case for the never-waiting worker-centric strategies, whose
    /// wake-up cost would otherwise grow `O(S)` per event.
    parked_count: usize,
    /// Whether the replica throttle governs this run (storage affinity
    /// with an active [`gridsched_core::ReplicaThrottle`]). Throttled runs
    /// use targeted wake-ups; unthrottled runs keep the legacy
    /// wake-everyone behaviour byte for byte.
    throttled: bool,
    /// The observability collector. Disabled unless the config requests
    /// an output (or a test injects one via [`GridSim::with_telemetry`]);
    /// recording through it is provably inert either way — no RNG draw, no
    /// event, no effect on any scheduling decision.
    telemetry: Telemetry,
    instruments: EngineInstruments,
    // The optional subsystems: `None` keeps every code path of one dormant,
    // so the run matches the engine without it exactly.
    replication: Option<ReplicationState>,
    churn: Option<Churn>,
    checkpointing: Option<Checkpointing>,
    control: Option<ControlPlane>,
    xfer: Option<XferGuard>,
    /// Tasks that were fault-orphaned at least once (re-execution
    /// accounting).
    lost_ever: Vec<bool>,
    /// The run's accounting, incremented in place by the handlers;
    /// [`GridSim::report`] adds the derived totals.
    ledger: MetricsReport,
    last_completion: SimTime,
}

/// The engine's cached instrument handles: the facade's registry lookup
/// is a `BTreeMap` walk, too slow for per-event hot paths. Each subsystem
/// caches its own.
struct EngineInstruments {
    wake_calls: Counter,
    wake_fanout: Histogram,
    wake_targeted: Counter,
}

impl EngineInstruments {
    fn new(telemetry: &Telemetry) -> Self {
        EngineInstruments {
            wake_calls: telemetry.counter("engine.wake.calls"),
            wake_fanout: telemetry.histogram("engine.wake.fanout"),
            wake_targeted: telemetry.counter("engine.wake.targeted"),
        }
    }
}

/// A sampler that runs between dispatched events at every `k·dt`, never
/// as an event: boundaries are computed as `dt · k` (not accumulated) so
/// the series is exact and strictly increasing, and the event queue —
/// including `events_dispatched` — never sees it. `dt: None` never fires.
struct Cadence {
    dt: Option<f64>,
    emitted: u64,
}

impl Cadence {
    /// The next boundary at or before `now`, counted as emitted, or
    /// `None` once every boundary up to `now` has been.
    fn next_due(&mut self, now: SimTime) -> Option<SimTime> {
        let at = SimTime::from_secs(self.dt? * (self.emitted + 1) as f64);
        if at > now {
            return None;
        }
        self.emitted += 1;
        Some(at)
    }
}

impl GridSim {
    /// Builds the simulation state for `config`.
    ///
    /// # Panics
    ///
    /// Panics with the error's text if `config.validate()` fails, or if
    /// the fault trace references a link the generated topology lacks
    /// ([`SimConfig::validate_links`]).
    #[must_use]
    pub fn new(config: SimConfig) -> Self {
        let topology = generate(&config.topology);
        if let Err(e) = config
            .validate()
            .and_then(|()| config.validate_links(&topology))
        {
            panic!("{e}");
        }
        // An adaptive throttle with no user-configured throttle starts
        // from the controller's default cap; the user's own bounds win
        // when present. The *configured* throttle stays in the summary —
        // the controller's moving cap is runtime state, not config.
        let effective_throttle =
            if config.control.adaptive_throttle && !config.replica_throttle.is_active() {
                ReplicaThrottle::none().with_replica_cap(CapController::DEFAULT_START_CAP)
            } else {
                config.replica_throttle
            };
        let telemetry = if config.telemetry_requested() {
            Telemetry::enabled()
        } else {
            Telemetry::disabled()
        };
        let mut net = NetSim::new(topology.graph.bandwidths());
        net.attach_telemetry(&telemetry);
        let stores: Vec<SiteStore> = (0..config.sites)
            .map(|_| SiteStore::new(config.capacity_files, config.policy))
            .collect();

        let mut speed_rng = rng_for(config.seed, Stream::WorkerSpeeds);
        let mut workers = Vec::with_capacity(config.sites * config.workers_per_site);
        for site in 0..config.sites {
            for index in 0..config.workers_per_site {
                workers.push(Worker {
                    id: WorkerId::new(SiteId(site as u32), index as u32),
                    speed_flops: config.speeds.sample(&mut speed_rng),
                    state: WorkerState::Idle,
                    generation: 0,
                    current: None,
                });
            }
        }
        let servers = (0..config.sites).map(|_| DataServer::default()).collect();
        let mut scheduler = build_scheduler(&config, effective_throttle);
        scheduler.attach_telemetry(&telemetry);
        let churn = config.faults.as_ref().and_then(|fc| {
            Churn::new(
                fc,
                config.seed,
                (workers.len(), config.sites, net.link_count()),
                &telemetry,
            )
        });
        let checkpointing = Checkpointing::new(&config, &topology);
        let lost_ever = vec![false; config.workload.task_count()];
        let replication = config
            .replication
            .map(|rc| ReplicationState::new(rc, config.workload.file_count(), config.seed));
        let per_site = vec![SiteMetrics::default(); config.sites];
        let site_routes: Vec<Arc<Route>> = (0..config.sites)
            .map(|s| Arc::new(topology.routes.site_to_file_server(s).clone()))
            .collect();
        let throttled = effective_throttle.is_active();
        let control = (!config.control.is_inert()).then(|| {
            let start_cap = effective_throttle
                .replica_cap
                .unwrap_or(CapController::DEFAULT_START_CAP);
            let mut plane = ControlPlane::new(
                config.control,
                config.sites,
                u32::try_from(config.workers_per_site).expect("workers_per_site fits u32"),
                start_cap,
            );
            plane.attach_telemetry(&telemetry);
            plane
        });
        let xfer = XferGuard::new(&config, &telemetry);
        let parked = vec![BTreeSet::new(); config.sites];
        GridSim {
            config,
            site_routes,
            schedule: Schedule::new(),
            net,
            stores,
            scheduler,
            workers,
            servers,
            parked,
            parked_count: 0,
            throttled,
            instruments: EngineInstruments::new(&telemetry),
            telemetry,
            replication,
            churn,
            checkpointing,
            control,
            xfer,
            lost_ever,
            ledger: MetricsReport {
                per_site,
                ..MetricsReport::default()
            },
            last_completion: SimTime::ZERO,
        }
    }

    /// Replaces the telemetry collector. [`Telemetry`] is a shared handle:
    /// tests and examples keep a clone, run the simulation, and inspect
    /// everything it recorded afterwards. Must be called before
    /// [`GridSim::run`] (instrument handles are re-distributed here, ahead
    /// of the scheduler's `initialize`).
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.scheduler.attach_telemetry(&telemetry);
        self.net.attach_telemetry(&telemetry);
        self.instruments = EngineInstruments::new(&telemetry);
        if let Some(churn) = self.churn.as_mut() {
            churn.outages = telemetry.counter("net.link.outages");
        }
        if let Some(plane) = self.control.as_mut() {
            plane.attach_telemetry(&telemetry);
        }
        if let Some(guard) = self.xfer.as_mut() {
            guard.attach_telemetry(&telemetry);
        }
        self.telemetry = telemetry;
        self
    }

    /// The run's telemetry collector (disabled unless requested).
    #[must_use]
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Runs the simulation to completion and returns the metrics.
    ///
    /// # Panics
    ///
    /// Panics if the simulation deadlocks (events drain while tasks remain
    /// unfinished) — this would indicate a scheduler bug — or if a
    /// configured telemetry output path cannot be written.
    #[must_use]
    pub fn run(mut self) -> MetricsReport {
        let env = GridEnv {
            sites: self.config.sites,
            workers_per_site: self.config.workers_per_site,
            capacity_files: self.config.capacity_files,
        };
        self.scheduler.initialize(&env, &self.stores);
        for w in 0..self.workers.len() {
            self.schedule.schedule_now(Event::WorkerIdle(w));
        }
        self.arm_faults();
        let mut probes = Cadence {
            dt: self
                .config
                .probe_interval_s
                .filter(|_| self.telemetry.is_enabled()),
            emitted: 0,
        };
        // Like the `Cadence` samplers, the determinism digest works
        // between dispatches: it folds each popped event into a rolling
        // hash right here, never scheduling anything, drawing no
        // randomness.
        let mut digest = self
            .config
            .digest_out
            .as_ref()
            .map(|_| DigestFold::new(self.config.digest_window_s));
        let server = self.config.serve_metrics.as_deref().map(|addr| {
            MetricsServer::start(addr)
                .unwrap_or_else(|e| panic!("cannot serve metrics at {addr}: {e}"))
        });
        // With every control loop disabled (`control: None`) the tick
        // cadence never fires — the open-loop engine byte for byte.
        // Actuation a tick performs (cap moves, wake-ups) lands at the
        // *current* event's time, like any handler's.
        let mut ticks = Cadence {
            dt: self.control.as_ref().map(|c| c.config().tick_s),
            emitted: 0,
        };
        let mut dispatched: u64 = 0;
        while let Some((now, event)) = self.schedule.next() {
            while let Some(at) = probes.next_due(now) {
                self.record_probe(at);
            }
            while let Some(at) = ticks.next_due(now) {
                self.control_tick(at);
            }
            if let Some(d) = digest.as_mut() {
                Self::fold_event(d, now, &event);
            }
            dispatched += 1;
            if let Some(server) = &server {
                // Refresh the served snapshot at a coarse event cadence
                // (wall-clock timers would be nondeterministic state).
                if dispatched.is_multiple_of(65_536) {
                    server.publish(self.render_exposition(dispatched));
                }
            }
            match event {
                Event::WorkerIdle(w) => self.handle_worker_idle(w),
                Event::FlowDone(fid) => self.handle_flow_done(fid),
                Event::ComputeDone {
                    worker,
                    task,
                    generation,
                } => self.handle_compute_done(worker, task, generation),
                Event::WorkerCrash(w) => self.handle_worker_crash(w),
                Event::WorkerRecover(w) => self.handle_worker_recover(w),
                Event::ServerFail(s) => self.handle_server_fail(s),
                Event::ServerRecover(s) => self.handle_server_recover(s),
                Event::CheckpointDue { worker, generation } => {
                    self.handle_checkpoint_due(worker, generation);
                }
                Event::BurstStrike => self.handle_burst_strike(),
                Event::LinkFail { link, hard } => self.handle_link_fail(link, hard),
                Event::LinkRecover { link } => self.handle_link_recover(link),
                Event::TransferTimeout { site, epoch } => {
                    self.handle_transfer_timeout(site, epoch);
                }
                Event::TransferRetry { site, epoch } => self.handle_transfer_retry(site, epoch),
            }
        }
        assert_eq!(
            self.scheduler.unfinished(),
            0,
            "simulation deadlocked with {} unfinished tasks ({})",
            self.scheduler.unfinished(),
            self.scheduler.name()
        );
        self.close_open_windows();
        let report = self.report();
        self.flush_telemetry();
        if let Some(d) = digest {
            let stream = d.finish();
            if let Some(path) = &self.config.digest_out {
                std::fs::write(path, stream.to_jsonl())
                    .unwrap_or_else(|e| panic!("cannot write digest to {path}: {e}"));
            }
        }
        if let Some(server) = &server {
            server.publish(self.render_exposition(dispatched));
            if self.config.serve_linger_s > 0.0 {
                std::thread::sleep(std::time::Duration::from_secs_f64(
                    self.config.serve_linger_s,
                ));
            }
        }
        report
    }

    /// Encodes one dispatched event into the digest fold: the timestamp
    /// bits, an event tag, then the payload words. Any change to what the
    /// engine dispatches — ordering, timing or payload — changes the
    /// chain.
    fn fold_event(digest: &mut DigestFold, now: SimTime, event: &Event) {
        let t = now.as_secs();
        match *event {
            Event::WorkerIdle(w) => digest.record(t, &[0, w as u64]),
            Event::FlowDone(fid) => digest.record(t, &[1, fid.raw()]),
            Event::ComputeDone {
                worker,
                task,
                generation,
            } => digest.record(t, &[2, worker as u64, task.index() as u64, generation]),
            Event::WorkerCrash(w) => digest.record(t, &[3, w as u64]),
            Event::WorkerRecover(w) => digest.record(t, &[4, w as u64]),
            Event::ServerFail(s) => digest.record(t, &[5, s as u64]),
            Event::ServerRecover(s) => digest.record(t, &[6, s as u64]),
            Event::CheckpointDue { worker, generation } => {
                digest.record(t, &[7, worker as u64, generation]);
            }
            // Tag 8 only ever appears when bursts are configured, so the
            // disabled digest chain stays byte-identical.
            Event::BurstStrike => digest.record(t, &[8]),
            // Tags 9–12 likewise only appear when link faults / the
            // transfer guard are configured.
            Event::LinkFail { link, hard } => {
                digest.record(t, &[9, link as u64, u64::from(hard)]);
            }
            Event::LinkRecover { link } => digest.record(t, &[10, link as u64]),
            Event::TransferTimeout { site, epoch } => {
                digest.record(t, &[11, site as u64, epoch]);
            }
            Event::TransferRetry { site, epoch } => {
                digest.record(t, &[12, site as u64, epoch]);
            }
        }
    }

    /// Renders the live `/metrics` body: the instrument registry in
    /// Prometheus text format plus run-level gauges.
    fn render_exposition(&self, events_dispatched: u64) -> String {
        let mut out = gridsched_telemetry::render_prometheus(&self.telemetry.snapshot());
        let (dispatched, completed) =
            (events_dispatched as f64, self.ledger.tasks_completed as f64);
        for (name, kind, value) in [
            ("gridsched_sim_time_seconds", "gauge", self.now().as_secs()),
            ("gridsched_events_dispatched_total", "counter", dispatched),
            ("gridsched_tasks_completed_total", "counter", completed),
        ] {
            let _ = writeln!(out, "# TYPE {name} {kind}");
            expose::write_sample(&mut out, name, &[], value);
        }
        out.push_str("# TYPE gridsched_run_info gauge\n");
        expose::write_sample(
            &mut out,
            "gridsched_run_info",
            &[
                ("strategy", &self.config.strategy.to_string()),
                ("sites", &self.config.sites.to_string()),
                (
                    "workers_per_site",
                    &self.config.workers_per_site.to_string(),
                ),
                ("seed", &self.config.seed.to_string()),
            ],
            1.0,
        );
        out
    }

    /// Samples the grid's state at probe boundary `at` — queue depths,
    /// worker states, store occupancy, network load — into the telemetry
    /// time series.
    fn record_probe(&mut self, at: SimTime) {
        let mut sites = vec![SiteProbe::default(); self.config.sites];
        for (s, server) in self.servers.iter().enumerate() {
            sites[s].queue_depth = server.queue.len() as u64;
            sites[s].server_down = server.down;
            sites[s].server_files = self.stores[s].len() as u64;
            sites[s].control_score_milli = match self.control.as_ref() {
                Some(plane) if plane.placement_enabled() => {
                    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                    {
                        (plane.site_scores()[s].clamp(0.0, 1.0) * 1000.0).round() as u64
                    }
                }
                // No placement loop: the neutral multiplier.
                _ => 1000,
            };
        }
        for w in &self.workers {
            let site = &mut sites[w.id.site.index()];
            match w.state {
                WorkerState::WaitingData | WorkerState::Restoring | WorkerState::Computing => {
                    site.busy_workers += 1;
                }
                WorkerState::Parked => site.parked_workers += 1,
                WorkerState::Down => site.dead_workers += 1,
                WorkerState::Idle | WorkerState::Done => {}
            }
        }
        self.telemetry.record_probe(ProbeSample {
            t_s: at.as_secs(),
            sites,
            in_flight_flows: self.net.active_flows() as u64,
            links_busy: self.net.busy_links() as u64,
            links_total: self.net.link_count() as u64,
            links_down: self.net.links_down() as u64,
        });
    }

    /// One controller tick at boundary `at`: feeds the cumulative replica
    /// counters to the plane, then actuates whatever it decided — a cap
    /// move goes to the scheduler (waking parked capacity on raises), a
    /// breaker half-open wakes one probe worker at the site, fresh
    /// placement scores go to the scheduler *and* steer the engine's own
    /// replication push targeting, and the adaptive Young/Daly loop
    /// re-derives each site's checkpoint interval from the observed
    /// failure interarrival process (taking effect at the next segment
    /// boundary — in-flight segments are never rescheduled).
    fn control_tick(&mut self, at: SimTime) {
        let Some(plane) = self.control.as_mut() else {
            return;
        };
        // Cancelled *or* fault-lost replicas both count as speculative
        // waste the throttle should react to.
        let outcome = plane.tick(
            at.as_secs(),
            self.ledger.replicas_cancelled + self.ledger.replicas_lost,
            self.ledger.replicas_completed,
        );
        if let Some(ckpt) = self.checkpointing.as_mut() {
            ckpt.retune(plane);
        }
        if let Some(cap) = outcome.new_cap {
            self.scheduler
                .on_control(&ControlDirective::SetReplicaCap(cap));
            if outcome.cap_raised {
                // The raise re-admits parked replica candidates.
                self.wake_parked();
            }
        }
        for &site in &outcome.half_opened {
            // Half-open re-admits the site's traffic (the dispatch gate
            // only blocks while fully open): wake every parked worker.
            // The first crash re-trips the breaker for a fresh cooldown;
            // parking the whole site until a completion closed it would
            // idle repaired workers for hours on compute-heavy tasks.
            self.wake_site_parked(site);
        }
        if let Some(mut scores) = outcome.scores {
            if let Some(guard) = self.xfer.as_mut() {
                guard.tick_breakers(at.as_secs(), &mut scores);
            }
            self.scheduler
                .on_control(&ControlDirective::SiteScores(scores));
        }
    }

    /// Closes the fault windows still open when the event queue drains
    /// (a scripted crash, outage or link cut with no scripted recovery
    /// never sees a recover event).
    fn close_open_windows(&mut self) {
        let entities = (0..self.workers.len())
            .map(Entity::Worker)
            .chain((0..self.config.sites).map(Entity::Server))
            .chain((0..self.net.link_count()).map(Entity::Link));
        for entity in entities {
            self.close_window(entity);
        }
    }

    /// Writes the configured telemetry outputs, if any.
    fn flush_telemetry(&self) {
        if let Some(path) = &self.config.trace_out {
            std::fs::write(path, self.telemetry.to_chrome_trace())
                .unwrap_or_else(|e| panic!("cannot write trace to {path}: {e}"));
        }
        if let Some(path) = &self.config.metrics_out {
            std::fs::write(path, self.telemetry.to_jsonl())
                .unwrap_or_else(|e| panic!("cannot write metrics to {path}: {e}"));
        }
    }

    fn now(&self) -> SimTime {
        self.schedule.now()
    }

    /// Opens span `name` for `task` on worker `w`'s track now.
    fn begin_span(&self, w: usize, name: &'static str, task: TaskId) {
        let (t, task) = (self.now().as_secs(), task.index() as u64);
        self.telemetry
            .span_begin_for_task(Track::worker(w), name, t, task);
    }

    /// Closes span `name` on worker `w`'s track now.
    fn end_span(&self, w: usize, name: &'static str) {
        self.telemetry
            .span_end(Track::worker(w), name, self.now().as_secs());
    }

    /// Records instant `name` for `task` on worker `w`'s track now.
    fn instant(&self, w: usize, name: &'static str, task: TaskId) {
        let (t, task) = (self.now().as_secs(), task.index() as u64);
        self.telemetry
            .instant_for_task(Track::worker(w), name, t, task);
    }

    // ----- scheduler interaction -------------------------------------

    fn handle_worker_idle(&mut self, w: usize) {
        match self.workers[w].state {
            WorkerState::Idle | WorkerState::Parked => {}
            // Stale re-poll (the worker got work, finished entirely, is
            // mid-execution, or crashed before the poll fired).
            WorkerState::WaitingData
            | WorkerState::Restoring
            | WorkerState::Computing
            | WorkerState::Down
            | WorkerState::Done => return,
        }
        let worker_id = self.workers[w].id;
        let site = worker_id.site.index();
        // An open breaker gates dispatch for *every* strategy at the
        // engine, before the scheduler is even consulted — no scheduler
        // state is perturbed, so closing the breaker restores the exact
        // open-loop decision sequence for the parked workers. Half-open
        // probes and closes wake the site's parked population again.
        if self
            .control
            .as_ref()
            .is_some_and(|p| p.dispatch_blocked(site))
        {
            self.park(w);
            return;
        }
        let assignment = self.scheduler.on_worker_idle(worker_id, &self.stores[site]);
        match assignment {
            Assignment::Run(task) | Assignment::Replicate(task) => {
                let is_replica = matches!(assignment, Assignment::Replicate(_));
                if is_replica {
                    self.ledger.replicas_launched += 1;
                }
                if self.lost_ever[task.index()] {
                    self.ledger.re_executions += 1;
                }
                self.workers[w].state = WorkerState::WaitingData;
                let files = self.config.workload.task(task).files().len();
                self.workers[w].current = Some(RunningTask::new(task, is_replica, files));
                self.begin_span(w, "queued", task);
                let enqueued_at = self.now();
                let generation = self.workers[w].generation;
                self.servers[site].queue.push_back(BatchRequest {
                    worker: w,
                    generation,
                    enqueued_at,
                });
                self.maybe_start_service(site);
                // New running task → replication candidates changed. Under
                // a throttle this re-poll is pointless (a new execution
                // never frees a cap or budget slot) and waking 10⁵ parked
                // workers per assignment would recreate the storm.
                if !self.throttled {
                    self.wake_parked();
                }
            }
            Assignment::Wait => {
                self.park(w);
            }
            Assignment::Finished => {
                // Under active faults "finished" is never final: a crash
                // may orphan a task at any time, so keep the worker
                // available for a wake-up instead of retiring it.
                if self.churn.is_some() {
                    self.park(w);
                } else {
                    self.workers[w].state = WorkerState::Done;
                }
            }
        }
    }

    fn park(&mut self, w: usize) {
        self.workers[w].state = WorkerState::Parked;
        let site = self.workers[w].id.site.index();
        if self.parked[site].insert(w) {
            self.parked_count += 1;
        }
    }

    /// Wakes every parked worker, in ascending index order (matching the
    /// former full scan, so event order — and hence every downstream
    /// decision — is unchanged). Entries whose worker has since crashed
    /// are silently dropped. `O(1)` when nothing is parked.
    fn wake_parked(&mut self) {
        self.instruments.wake_calls.incr();
        if self.parked_count == 0 {
            self.instruments.wake_fanout.record(0);
            return;
        }
        let mut list: Vec<usize> = Vec::new();
        for site in &mut self.parked {
            list.extend(std::mem::take(site));
        }
        self.parked_count = 0;
        list.sort_unstable();
        self.instruments.wake_fanout.record(list.len() as u64);
        for w in list {
            self.unpark(w);
        }
    }

    /// Re-polls `w` if it is still parked (a crash since parking leaves a
    /// stale entry behind). Returns whether it was.
    fn unpark(&mut self, w: usize) -> bool {
        let parked = self.workers[w].state == WorkerState::Parked;
        if parked {
            self.workers[w].state = WorkerState::Idle;
            self.schedule.schedule_now(Event::WorkerIdle(w));
        }
        parked
    }

    /// Wakes the lowest-indexed parked worker of `site`, if any — the
    /// targeted hand-off of a freed replica slot under an active throttle
    /// (`O(log parked)`, vs re-polling the whole parked population). Stale
    /// entries (workers that crashed since parking) are dropped along the
    /// way.
    fn wake_one_parked(&mut self, site: usize) {
        self.instruments.wake_targeted.incr();
        while let Some(w) = self.parked[site].pop_first() {
            self.parked_count -= 1;
            if self.unpark(w) {
                return;
            }
        }
    }

    /// Wakes every parked worker of `site`, in ascending index order — a
    /// closing circuit breaker re-opens the whole site at once.
    fn wake_site_parked(&mut self, site: usize) {
        let list = std::mem::take(&mut self.parked[site]);
        self.parked_count -= list.len();
        for w in list {
            self.unpark(w);
        }
    }

    // ----- data-server service loop -----------------------------------

    fn maybe_start_service(&mut self, site: usize) {
        if self.servers[site].down || self.servers[site].active.is_some() {
            return;
        }
        let request = loop {
            let Some(request) = self.servers[site].queue.pop_front() else {
                return;
            };
            // Skip entries whose execution was torn down since enqueueing
            // (replica cancels, crashes) — see `BatchRequest::generation`.
            if self.workers[request.worker].generation == request.generation {
                break request;
            }
        };
        let w = request.worker;
        let task = self.workers[w].task();
        self.end_span(w, "queued");
        self.begin_span(w, "staging", task);
        // The file list is borrowed through a handle of the workload, not
        // copied, while `self` is mutated below.
        let workload = Arc::clone(&self.config.workload);
        let files = workload.task(task).files();
        // Waiting time: enqueue → service start (Table 3 column 1).
        let waited = (self.now() - request.enqueued_at).as_secs();
        let sm = &mut self.ledger.per_site[site];
        sm.requests += 1;
        sm.waiting_time_s += waited;
        // Pin what is present; fetch the rest.
        let mut to_fetch = VecDeque::new();
        for &f in files {
            if self.stores[site].contains(f) {
                self.stores[site].pin(f);
                self.workers[w].running().pinned.push(f);
            } else {
                to_fetch.push_back(f);
            }
        }
        self.servers[site].active = Some(ActiveBatch {
            worker: w,
            service_start: self.now(),
            to_fetch,
            current: None,
        });
        self.advance_batch(site);
    }

    /// Starts the next missing-file transfer of `site`'s active batch, or
    /// completes the batch when nothing is left. A transfer started at the
    /// instant the batch's previous file arrived takes that flow's solver
    /// slot over (see [`NetSim::start_flow`]).
    fn advance_batch(&mut self, site: usize) {
        loop {
            let batch = self.servers[site]
                .active
                .as_mut()
                .expect("advance_batch requires an active batch");
            debug_assert!(batch.current.is_none());
            let Some(file) = batch.to_fetch.pop_front() else {
                self.finish_batch(site);
                return;
            };
            let w = batch.worker;
            // The file may have arrived meanwhile (replication push).
            if self.stores[site].contains(file) {
                self.stores[site].pin(file);
                self.workers[w].running().pinned.push(file);
                continue;
            }
            let now = self.now();
            let route = &self.site_routes[site];
            let bytes = self.config.workload.file_size_bytes;
            let purpose = FlowPurpose::Batch { site };
            let fid = self
                .net
                .start_flow(now, &route.links, bytes, route.latency_s, purpose);
            self.ledger.flows_started += 1;
            self.servers[site]
                .active
                .as_mut()
                .expect("still active")
                .current = Some((file, fid));
            resync(&mut self.net, &mut self.schedule);
            if let Some(guard) = self.xfer.as_mut() {
                // A fresh file with a fresh attempt budget. The deadline is
                // armed *after* the flow starts so the fair-share estimate
                // sees the flow's own claim on its route.
                let route = &self.site_routes[site];
                let est = self.net.fair_share_estimate(&route.links);
                guard.arm(site, true, bytes, est, route.latency_s, &mut self.schedule);
            }
            return;
        }
    }

    /// All files of the active batch are pinned locally: account transfer
    /// time, bump `r_i`, start the computation, and free the server.
    fn finish_batch(&mut self, site: usize) {
        let batch = self.servers[site].active.take().expect("active batch");
        let w = batch.worker;
        self.end_span(w, "staging");
        let transfer_time = (self.now() - batch.service_start).as_secs();
        self.ledger.per_site[site].transfer_time_s += transfer_time;
        self.ledger.per_site[site].tasks_started += 1;

        let task = self.workers[w].task();
        let workload = Arc::clone(&self.config.workload);
        let files = workload.task(task).files();
        for &f in files {
            self.stores[site].record_task_reference(f);
        }
        self.scheduler
            .on_files_referenced(SiteId(site as u32), files);
        self.maybe_replicate(files, site);

        // Checkpoint restore: a re-executed task resumes from its latest
        // surviving image instead of recomputing from scratch. A remote
        // image must first cross the network; compute starts on arrival.
        if self.try_restore(w, site) {
            self.maybe_start_service(site);
            return;
        }
        self.begin_compute_segment(w);

        // The server moves on to the next queued request.
        self.maybe_start_service(site);
    }

    /// Loads `w`'s task's latest checkpoint image into the execution, if
    /// one survives. Returns `true` when a cross-site image fetch was
    /// started (the worker is [`WorkerState::Restoring`] until it lands);
    /// a local image restores for free and compute can begin immediately.
    fn try_restore(&mut self, w: usize, site: usize) -> bool {
        let task = self.workers[w].task();
        let Some((img_site, image)) = self.checkpointing.as_ref().and_then(|c| c.image(task))
        else {
            return false;
        };
        let current = self.workers[w].running();
        current.progress_flops = image.flops_done;
        current.progress_s = image.invested_s;
        current.durable_flops = image.flops_done;
        current.durable_s = image.invested_s;
        if img_site == site {
            // Intra-site reads are free in the paper's model; the rescue
            // takes effect right now.
            self.ledger.checkpoint_restores += 1;
            self.ledger.work_saved_s += image.invested_s;
            return false;
        }
        // The image travels source site → backbone → destination site
        // (all inter-site traffic rides the file-server backbone in this
        // model).
        let (links, latency_s) = union_route(&self.site_routes, img_site, site);
        let fid = self.net.start_flow(
            self.now(),
            &links,
            image.bytes,
            latency_s,
            FlowPurpose::Restore {
                worker: w,
                from_site: img_site,
            },
        );
        self.ledger.flows_started += 1;
        let started = self.now();
        let current = self.workers[w].running();
        current.ckpt_flow = Some((fid, started, None));
        self.workers[w].state = WorkerState::Restoring;
        self.begin_span(w, "restore", task);
        resync(&mut self.net, &mut self.schedule);
        true
    }

    /// Starts (or resumes) computing `w`'s task: schedules either the
    /// final [`Event::ComputeDone`] or, when checkpointing would fire
    /// first, the next [`Event::CheckpointDue`] segment boundary.
    fn begin_compute_segment(&mut self, w: usize) {
        let site = self.workers[w].id.site.index();
        let speed = self.workers[w].speed_flops;
        let generation = self.workers[w].generation;
        let task = self.workers[w].task();
        let progress = self.workers[w].running().progress_flops;
        let flops = self.config.workload.task(task).flops;
        let remaining_s = (flops - progress).max(0.0) / speed;
        let interval = self.checkpointing.as_ref().map(|c| c.interval_s(site));
        let handle = match interval {
            Some(t) if remaining_s > t => self.schedule.schedule_in(
                SimDuration::from_secs(t),
                Event::CheckpointDue {
                    worker: w,
                    generation,
                },
            ),
            _ => self.schedule.schedule_in(
                SimDuration::from_secs(remaining_s),
                Event::ComputeDone {
                    worker: w,
                    task,
                    generation,
                },
            ),
        };
        let started = self.now();
        let current = self.workers[w].running();
        current.compute_handle = Some(handle);
        current.compute_started = Some(started);
        self.workers[w].state = WorkerState::Computing;
        self.begin_span(w, "compute", task);
    }

    /// A compute segment ended: commit its progress and write a checkpoint
    /// image to the site's data server (skipped while the server is down —
    /// there is nowhere to write, so the worker keeps computing).
    fn handle_checkpoint_due(&mut self, w: usize, generation: u64) {
        if self.workers[w].generation != generation {
            // Stale event from an aborted execution; the handle should
            // have been cancelled, but be tolerant.
            return;
        }
        debug_assert_eq!(self.workers[w].state, WorkerState::Computing);
        let site = self.workers[w].id.site.index();
        let speed = self.workers[w].speed_flops;
        let now = self.now();
        let current = self.workers[w].running();
        let started = current
            .compute_started
            .take()
            .expect("segment boundary implies a running segment");
        let seg_s = (now - started).as_secs();
        current.progress_flops += seg_s * speed;
        current.progress_s += seg_s;
        current.compute_handle = None;
        self.end_span(w, "compute");
        if self.servers[site].down {
            self.begin_compute_segment(w);
            return;
        }
        let (link, size) = self
            .checkpointing
            .as_ref()
            .expect("checkpoint event implies checkpointing")
            .write_path(site);
        let fid = self.net.start_flow(
            now,
            &[link],
            size,
            0.0,
            FlowPurpose::Checkpoint { worker: w },
        );
        self.ledger.flows_started += 1;
        let current = self.workers[w].running();
        let image = (current.progress_flops, current.progress_s);
        current.ckpt_flow = Some((fid, now, Some(image)));
        self.begin_span(w, "checkpoint", self.workers[w].task());
        resync(&mut self.net, &mut self.schedule);
    }

    // ----- network ------------------------------------------------------

    fn handle_flow_done(&mut self, fid: FlowId) {
        let purpose = self.net.finish_flow(self.now(), fid);
        self.ledger.flows_completed += 1;
        match purpose {
            FlowPurpose::Batch { site } => {
                let (file, flow) = self.servers[site]
                    .active
                    .as_mut()
                    .expect("flow belongs to an active batch")
                    .current
                    .take()
                    .expect("batch has an in-flight file");
                debug_assert_eq!(flow, fid);
                let bytes = self.attempt_bytes(site);
                self.ledger.per_site[site].file_transfers += 1;
                self.ledger.per_site[site].bytes_transferred += bytes;
                if let Some(guard) = self.xfer.as_mut() {
                    guard.feed(site, self.schedule.now().as_secs(), true);
                }
                self.disarm_transfer_guard(site);
                let fresh = !self.stores[site].contains(file);
                let refs = self.stores[site].admit_pinned(file);
                if fresh {
                    self.file_added(site, file, refs);
                } else {
                    // A replication push landed this very file while the
                    // batch fetch was in flight: the fetch still consumed
                    // bandwidth (accounted above), but the store and the
                    // scheduler's overlap views already know the file — a
                    // second `on_file_added` would double-count it and
                    // corrupt every cached counter. The insert only
                    // refreshed its recency.
                    debug_assert!(
                        self.stores[site].evicted().is_empty(),
                        "touching evicts nothing"
                    );
                }
                let w = self.servers[site].active.as_ref().expect("active").worker;
                self.workers[w].running().pinned.push(file);
                // The resync may be skipped when a fetch starts at this site
                // at this instant: the batch's next missing file, or, once
                // the batch is done, the first file the store lacks of the
                // server's next serviceable request (first queue entry with
                // a live generation; nothing before `maybe_start_service`
                // changes this site's residency or any generation). That
                // fetch's own resync replaces this one's arm before any
                // event dispatches. Any other continuation may end this
                // event without touching the net again, so the resync must
                // stay.
                let lacks = |f: &FileId| !self.stores[site].contains(*f);
                let batch = self.servers[site].active.as_ref().expect("still active");
                let fetch_starts_now = batch.to_fetch.iter().any(lacks)
                    || self.servers[site]
                        .queue
                        .iter()
                        .find(|r| self.workers[r.worker].generation == r.generation)
                        .is_some_and(|r| {
                            let task = self.workers[r.worker].task();
                            self.config.workload.task(task).files().iter().any(lacks)
                        });
                if !fetch_starts_now {
                    resync(&mut self.net, &mut self.schedule);
                }
                self.advance_batch(site);
            }
            FlowPurpose::Replication { site, file } => {
                let bytes = self.config.workload.file_size_bytes;
                self.ledger.replication_bytes += bytes;
                self.ledger.per_site[site].file_transfers += 1;
                self.ledger.per_site[site].bytes_transferred += bytes;
                if !self.stores[site].contains(file) {
                    let refs = self.stores[site].admit(file);
                    self.file_added(site, file, refs);
                }
                resync(&mut self.net, &mut self.schedule);
            }
            FlowPurpose::Checkpoint { worker } => {
                let site = self.workers[worker].id.site.index();
                let image = self.end_ckpt_flow(worker).expect("image pending");
                let current = self.workers[worker].running();
                let ckpt = self.checkpointing.as_mut().expect("checkpoint flow");
                if ckpt.commit(current.task, site, image) {
                    (current.durable_flops, current.durable_s) = image;
                }
                resync(&mut self.net, &mut self.schedule);
                self.begin_compute_segment(worker);
            }
            FlowPurpose::Restore { worker, .. } => {
                self.end_ckpt_flow(worker);
                let saved = self.workers[worker].running().progress_s;
                self.ledger.checkpoint_restores += 1;
                self.ledger.work_saved_s += saved;
                resync(&mut self.net, &mut self.schedule);
                self.begin_compute_segment(worker);
            }
        }
    }

    /// Forwards the eviction and addition notifications of a file that
    /// the store just admitted at `site`, with `refs` past references
    /// there, to the scheduler (and the evictions to the replication state
    /// — a lost copy may break the full coverage that exhausted a file).
    fn file_added(&mut self, site: usize, file: FileId, refs: u32) {
        // The store keeps the admit's evictions until its next insert,
        // which none of these notifications makes.
        for k in 0..self.stores[site].evicted().len() {
            let (gone, gone_refs) = self.stores[site].evicted()[k];
            self.ledger.per_site[site].evictions += 1;
            self.file_gone(site, gone, gone_refs);
        }
        self.scheduler
            .on_file_added(SiteId(site as u32), file, refs);
    }

    /// Reports a copy of `file`, with `refs` past references at `site`,
    /// that `site` lost (evicted, or with its data server) to the
    /// scheduler and the replication state.
    fn file_gone(&mut self, site: usize, file: FileId, refs: u32) {
        self.scheduler
            .on_file_evicted(SiteId(site as u32), file, refs);
        if let Some(rep) = self.replication.as_mut() {
            rep.on_copy_lost(file);
        }
    }

    // ----- replication extension ----------------------------------------

    fn maybe_replicate(&mut self, files: &[FileId], origin_site: usize) {
        let Some(replication) = self.replication.as_mut() else {
            return;
        };
        if self.config.sites < 2 {
            return;
        }
        for &f in files {
            if !replication.record_reference(f) {
                continue;
            }
            // Pick a random site lacking the file (skipping servers that
            // are down — nothing can receive a push during an outage).
            let mut any_down = false;
            let mut candidates: Vec<usize> = Vec::new();
            for s in 0..self.config.sites {
                if s == origin_site {
                    continue;
                }
                if self.servers[s].down {
                    any_down = true;
                } else if !self.stores[s].contains(f) {
                    candidates.push(s);
                }
            }
            // The churn-placement loop, when on, restricts the draw to the
            // highest-scoring candidates (availability × breaker factor).
            let scores = self
                .control
                .as_ref()
                .filter(|p| p.placement_enabled())
                .map(ControlPlane::site_scores);
            let Some(target) = replication.pick_target(candidates, scores) else {
                // Nothing can receive the file right now. If no server is
                // down, every possible target already holds the file —
                // coverage is complete, so stop re-scanning (and
                // re-drawing) on later references until a copy is lost
                // again (`on_copy_lost` re-arms the file on eviction or
                // outage). A down server, by contrast, comes back empty
                // after repair, so outage windows keep the file eligible.
                if !any_down {
                    replication.mark_exhausted(f);
                }
                continue;
            };
            replication.mark_pushed(f);
            self.ledger.replication_pushes += 1;
            let now = self.schedule.now();
            let route = &self.site_routes[target];
            self.net.start_flow(
                now,
                &route.links,
                self.config.workload.file_size_bytes,
                route.latency_s,
                FlowPurpose::Replication {
                    site: target,
                    file: f,
                },
            );
            self.ledger.flows_started += 1;
            resync(&mut self.net, &mut self.schedule);
        }
    }

    // ----- completion & replica cancellation -----------------------------

    /// A replica execution at `site` ended (won, was cancelled, or died):
    /// its site-budget slot is free again, so hand it to one parked worker
    /// of that site. No-op for unthrottled runs — their wake-ups stay on
    /// the legacy everyone-repolls path.
    fn on_replica_slot_freed(&mut self, site: usize) {
        if self.throttled {
            self.wake_one_parked(site);
        }
    }

    fn handle_compute_done(&mut self, w: usize, task: TaskId, generation: u64) {
        if self.workers[w].generation != generation {
            // Stale event from an aborted execution; the handle should have
            // been cancelled, but be tolerant.
            return;
        }
        let site = self.workers[w].id.site.index();
        let current = self.workers[w].current.take().expect("computing worker");
        debug_assert_eq!(current.task, task);
        let t = self.now().as_secs();
        self.end_span(w, "compute");
        self.instant(w, "complete", task);
        let was_replica = current.is_replica;
        for f in current.pinned {
            self.stores[site].unpin(f);
        }
        self.workers[w].state = WorkerState::Idle;
        self.ledger.tasks_completed += 1;
        if was_replica {
            self.ledger.replicas_completed += 1;
        }
        self.last_completion = self.now();
        // A completion is the success signal a half-open breaker waits
        // for; closing it re-opens the site to dispatch.
        let breaker_closed = self
            .control
            .as_mut()
            .is_some_and(|plane| plane.on_site_success(site, t));
        if breaker_closed {
            self.wake_site_parked(site);
        }
        if let Some(ckpt) = self.checkpointing.as_mut() {
            ckpt.complete(task);
        }

        let outcome = self.scheduler.on_task_complete(self.workers[w].id, task);
        for victim in outcome.cancel_replicas {
            self.abort_execution(victim, task);
        }
        self.schedule.schedule_now(Event::WorkerIdle(w));
        if self.throttled {
            // Targeted wake-ups only: the winner's own slot (if it was a
            // replica) frees here; the cancelled losers freed theirs in
            // `abort_execution`. Nothing else about a completion makes a
            // parked worker eligible, so the legacy everyone-repolls pass
            // (which would re-create the storm at 10⁵ parked workers) is
            // skipped.
            if was_replica {
                self.on_replica_slot_freed(site);
            }
        } else {
            self.wake_parked();
        }
    }

    /// Tears down worker `w`'s execution in progress (queued request,
    /// active batch with its in-flight transfer, or running computation):
    /// detaches it from the data server and network, accounts wasted
    /// compute, and unpins its files. Returns the task it was executing
    /// and whether the execution had been launched as a replica.
    ///
    /// The caller decides what the worker becomes (idle again for replica
    /// cancels, down for crashes) and how the scheduler hears about it.
    fn teardown_execution(&mut self, w: usize) -> Option<(TaskId, bool)> {
        let site = self.workers[w].id.site.index();
        let current = self.workers[w].current.as_ref()?;
        let (task, is_replica) = (current.task, current.is_replica);
        let active = self.servers[site]
            .active
            .as_ref()
            .is_some_and(|b| b.worker == w);
        // Each arm closes the lifecycle span the execution died in.
        match self.workers[w].state {
            WorkerState::WaitingData if active => {
                self.dissolve_batch(site);
            }
            // Still queued at the data server: the entry stays in place,
            // and the caller's generation bump marks it stale.
            WorkerState::WaitingData => self.end_span(w, "queued"),
            WorkerState::Restoring | WorkerState::Computing => {
                let now = self.now();
                let current = self.workers[w].running();
                let (handle, ckpt_flow) = (current.compute_handle, current.ckpt_flow);
                // Committed-but-undurable segments are lost along with the
                // in-flight segment; checkpointed work is not (a restoring
                // execution has computed nothing since its image).
                self.ledger.wasted_compute_s += current.progress_s - current.durable_s;
                if let Some(started) = current.compute_started {
                    self.ledger.wasted_compute_s += (now - started).as_secs();
                }
                if let Some(h) = handle {
                    self.schedule.cancel(h);
                }
                // An image write or restore fetch dies with the execution
                // (a restored image survives at its source), but the stall
                // it caused was still paid.
                if let Some((fid, ..)) = ckpt_flow {
                    self.abort_flow(fid);
                    resync(&mut self.net, &mut self.schedule);
                    self.end_ckpt_flow(w);
                } else {
                    self.end_span(w, "compute");
                }
            }
            other => panic!("teardown_execution on worker in state {other:?}"),
        }
        self.instant(w, "aborted", task);
        if active {
            self.maybe_start_service(site);
        }
        let pinned = self.workers[w].current.take().map(|c| c.pinned);
        for f in pinned.into_iter().flatten() {
            self.stores[site].unpin(f);
        }
        Some((task, is_replica))
    }

    /// Dissolves `site`'s active batch: aborts its in-flight attempt,
    /// booking the bytes that attempt delivered, stands the transfer guard
    /// down (cancelling an armed timeout or retry), books the service time
    /// as transfer time, unpins the batch's files and closes the worker's
    /// `staging` span. Returns the batch's worker, whose execution stays
    /// in place for the caller to re-queue or hand back.
    fn dissolve_batch(&mut self, site: usize) -> usize {
        let batch = self.servers[site].active.take().expect("active batch");
        let w = batch.worker;
        if let Some((_, fid)) = batch.current {
            let attempt = self.attempt_bytes(site);
            if let Some(left) = self.abort_flow(fid) {
                self.ledger.per_site[site].bytes_transferred += (attempt - left).max(0.0);
            }
            resync(&mut self.net, &mut self.schedule);
        }
        self.disarm_transfer_guard(site);
        self.ledger.per_site[site].transfer_time_s += (self.now() - batch.service_start).as_secs();
        let current = self.workers[w].running();
        for f in current.pinned.drain(..) {
            self.stores[site].unpin(f);
        }
        self.end_span(w, "staging");
        w
    }

    /// The bytes `site`'s current batch attempt set out to carry: the
    /// whole file, or under the transfer guard what the attempt still had
    /// to deliver (a resumed re-fetch is smaller than the file).
    fn attempt_bytes(&self, site: usize) -> f64 {
        self.xfer
            .as_ref()
            .map_or(self.config.workload.file_size_bytes, |g| g.remaining(site))
    }

    /// Cancels flow `fid` as an abort (replica cancel, crash or server
    /// failure) and books it in the flow ledger, its undelivered bytes as
    /// cancelled. Returns those bytes, or `None` for a flow that had
    /// already ended.
    fn abort_flow(&mut self, fid: FlowId) -> Option<f64> {
        let left = self.net.cancel_flow(self.now(), fid)?;
        self.ledger.flows_aborted += 1;
        self.ledger.cancelled_bytes += left;
        Some(left)
    }

    /// Ends `w`'s image write or restore fetch, completed or aborted:
    /// clears the flow, books the stall since it started as checkpoint
    /// overhead (spent even when the image never landed) and closes the
    /// `checkpoint` or `restore` span. Returns the image a write carried.
    fn end_ckpt_flow(&mut self, w: usize) -> Option<Progress> {
        let now = self.now();
        let phase = match self.workers[w].state {
            WorkerState::Restoring => "restore",
            _ => "checkpoint",
        };
        let flow = self.workers[w].running().ckpt_flow.take();
        let (_, started, image) = flow.expect("an image flow is in flight");
        self.ledger.checkpoint_overhead_s += (now - started).as_secs();
        self.end_span(w, phase);
        image
    }

    /// Aborts `task`'s execution at `victim` (queued, transferring or
    /// computing) and returns the worker to the idle pool.
    fn abort_execution(&mut self, victim: WorkerId, task: TaskId) {
        let w = victim.flat_index(self.config.workers_per_site);
        debug_assert_eq!(self.workers[w].id, victim, "flat index mismatch");
        let (torn, was_replica) = self
            .teardown_execution(w)
            .expect("cancel target is executing");
        assert_eq!(torn, task, "cancel target runs a different task");
        // A losing *primary* (its replica won the race) is not a cancelled
        // replica flow — keep the speculative-waste accounting honest.
        if was_replica {
            self.ledger.replicas_cancelled += 1;
        } else {
            self.ledger.primaries_cancelled += 1;
        }
        self.workers[w].generation += 1;
        self.workers[w].state = WorkerState::Idle;
        self.scheduler.on_replica_aborted(victim, task);
        self.schedule.schedule_now(Event::WorkerIdle(w));
        if was_replica {
            self.on_replica_slot_freed(victim.site.index());
        }
    }

    // ----- fault injection ------------------------------------------------

    /// Schedules the first stochastic fault of every entity plus every
    /// scripted trace event.
    fn arm_faults(&mut self) {
        if self.churn.is_none() {
            return;
        }
        for w in 0..self.workers.len() {
            self.rearm(Entity::Worker(w), true);
        }
        for s in 0..self.config.sites {
            self.rearm(Entity::Server(s), true);
        }
        self.rearm_burst();
        for l in 0..self.net.link_count() {
            self.rearm(Entity::Link(l), true);
        }
        // Scripted link/partition events are always hard — a partitioned
        // site is unreachable, not slow.
        let trace = self.config.faults.as_ref().and_then(|f| f.trace.clone());
        if let Some(trace) = trace {
            // `FaultTrace::validate` in `GridSim::new` bounds each worker.
            let wps = self.config.workers_per_site;
            let flat = |site: usize, worker: usize| {
                WorkerId::new(SiteId(site as u32), worker as u32).flat_index(wps)
            };
            for e in &trace.events {
                let at = SimTime::from_secs(e.at_s);
                let event = match e.kind {
                    FaultKind::WorkerCrash { site, worker } => {
                        Event::WorkerCrash(flat(site, worker))
                    }
                    FaultKind::WorkerRecover { site, worker } => {
                        Event::WorkerRecover(flat(site, worker))
                    }
                    FaultKind::ServerFail { site } => Event::ServerFail(site),
                    FaultKind::ServerRecover { site } => Event::ServerRecover(site),
                    FaultKind::LinkDown { link } => Event::LinkFail { link, hard: true },
                    FaultKind::LinkUp { link } => Event::LinkRecover { link },
                    // A site partition severs the site's access link — the
                    // one hop every route into the site crosses.
                    FaultKind::Partition { site } => Event::LinkFail {
                        link: self.access_link_of(site),
                        hard: true,
                    },
                    FaultKind::PartitionHeal { site } => Event::LinkRecover {
                        link: self.access_link_of(site),
                    },
                };
                self.schedule.schedule_at(at, event);
            }
        }
    }

    /// The site's access link: the last hop of its route to the file
    /// server, crossed by every flow into or out of the site.
    fn access_link_of(&self, site: usize) -> usize {
        self.site_routes[site]
            .links
            .last()
            .expect("site routes cross at least one link")
            .index()
    }

    /// Schedules `entity`'s next stochastic failure (`fail`) or repair,
    /// when a churn process drives it.
    fn rearm(&mut self, entity: Entity, fail: bool) {
        if let Some((delay, event)) = self.churn.as_mut().and_then(|c| c.next(entity, fail)) {
            self.schedule.schedule_in(delay, event);
        }
    }

    /// Schedules the next burst strike, when bursts are on.
    fn rearm_burst(&mut self) {
        if let Some(gap) = self.churn.as_mut().and_then(Churn::next_burst) {
            self.schedule.schedule_in(gap, Event::BurstStrike);
        }
    }

    /// Opens `entity`'s fault window now (`hard`: whether a link is cut
    /// rather than degraded) and, for a worker or server, its span.
    fn open_window(&mut self, entity: Entity, hard: bool) {
        let now = self.now();
        let churn = self.churn.as_mut().expect("fault events imply churn");
        *churn.window(entity) = Some((now, hard));
        let t = now.as_secs();
        match entity {
            Entity::Worker(w) => self.telemetry.span_begin(Track::worker(w), "down", t),
            Entity::Server(s) => self.telemetry.span_begin(Track::server(s), "outage", t),
            Entity::Link(_) => {}
        }
    }

    /// Closes `entity`'s open fault window, if any: books its downtime,
    /// clipped to the makespan, and ends its span. Returns whether the
    /// window was a hard outage.
    fn close_window(&mut self, entity: Entity) -> Option<bool> {
        let (since, hard) = self.churn.as_mut()?.window(entity).take()?;
        let downtime = (self.downtime_end().max(since) - since).as_secs();
        let t = self.now().as_secs();
        match entity {
            Entity::Worker(w) => {
                let site = self.workers[w].id.site.index();
                self.ledger.per_site[site].worker_downtime_s += downtime;
                self.end_span(w, "down");
            }
            Entity::Server(s) => {
                self.ledger.per_site[s].server_downtime_s += downtime;
                self.telemetry.span_end(Track::server(s), "outage", t);
            }
            Entity::Link(_) => self.ledger.link_downtime_s += downtime,
        }
        Some(hard)
    }

    /// A link fails (hard outage or degraded-bandwidth window). Flows
    /// crossing a hard-down link stall at rate zero — the transfer guard,
    /// when armed, is what turns the stall into a retry.
    fn handle_link_fail(&mut self, link: usize, hard: bool) {
        if self.scheduler.unfinished() == 0 {
            return;
        }
        let now = self.now();
        let churn = self.churn.as_mut().expect("fault events imply churn");
        // Already impaired (scripted + stochastic overlap): ignore; the
        // stochastic process re-arms from the recovery, like worker
        // crashes.
        if churn.window(Entity::Link(link)).is_some() {
            return;
        }
        if hard {
            self.net.set_link_down(now, EdgeId(link as u32));
        } else {
            let factor = churn.degrade_factor();
            self.net
                .set_link_capacity_factor(now, EdgeId(link as u32), factor);
        }
        churn.outages.incr();
        self.open_window(Entity::Link(link), hard);
        self.ledger.link_outages += 1;
        resync(&mut self.net, &mut self.schedule);
        self.rearm(Entity::Link(link), false);
    }

    /// The link's repair completes: restore its capacity and account the
    /// outage window (clipped to the makespan like worker downtime).
    fn handle_link_recover(&mut self, link: usize) {
        let Some(hard) = self.close_window(Entity::Link(link)) else {
            return;
        };
        let now = self.now();
        if hard {
            self.net.set_link_up(now, EdgeId(link as u32));
        } else {
            self.net
                .set_link_capacity_factor(now, EdgeId(link as u32), 1.0);
        }
        resync(&mut self.net, &mut self.schedule);
        if self.scheduler.unfinished() == 0 {
            return;
        }
        self.rearm(Entity::Link(link), true);
    }

    // ----- transfer guard -------------------------------------------------

    /// Stands `site`'s guard slot down and disarms its timer (the armed
    /// timeout or retry, if any). Runs whenever the guarded fetch ends
    /// without a timeout: completion or batch dissolution.
    fn disarm_transfer_guard(&mut self, site: usize) {
        if let Some(guard) = self.xfer.as_mut() {
            guard.stand_down(site);
            self.schedule.disarm_timer(site);
        }
    }

    /// `site`'s in-flight batch fetch blew its deadline: cancel the flow,
    /// book the bytes it delivered, and either schedule the guard's
    /// backoff-delayed retry or, once the attempt budget is spent, hand
    /// the task back.
    fn handle_transfer_timeout(&mut self, site: usize, epoch: u64) {
        let guard = self.xfer.as_mut().expect("timeout implies a guard");
        // A stand-down disarms the site's timer, so no stale one dispatches.
        debug_assert!(guard.is_live(site, epoch), "stale timeout at site {site}");
        let batch = self.servers[site].active.as_mut();
        let Some((file, fid)) = batch.and_then(|b| b.current.take()) else {
            return;
        };
        let now = self.schedule.now();
        let left = self
            .net
            .cancel_flow(now, fid)
            .expect("guarded fetch is an active flow");
        // What did move stays on the books; whether it is kept (resume)
        // or re-sent (naive restart) is the guard's call.
        let delivered = (guard.remaining(site) - left).max(0.0);
        self.ledger.per_site[site].bytes_transferred += delivered;
        resync(&mut self.net, &mut self.schedule);
        self.ledger.xfer_timeouts += 1;
        if !guard.timed_out(
            site,
            now.as_secs(),
            file,
            left,
            delivered,
            &mut self.schedule,
        ) {
            // The dissolve stands the guard down, bumping the epoch.
            self.ledger.flows_requeued += 1;
            self.requeue_after_exhausted_retries(site);
            return;
        }
        self.ledger.flows_retrying += 1;
        if guard.resumes() {
            self.ledger.xfer_bytes_resumed += delivered;
        } else {
            self.ledger.xfer_bytes_retransmitted += delivered;
        }
    }

    /// The retry budget for `site`'s fetch is spent: dissolve the batch
    /// and hand the task back to the scheduler — it may land anywhere,
    /// including a site whose route still works. The worker itself is
    /// healthy (the network path failed, not the machine), so it goes
    /// straight back to the idle pool.
    fn requeue_after_exhausted_retries(&mut self, site: usize) {
        let w = self.dissolve_batch(site);
        let current = self.workers[w]
            .current
            .take()
            .expect("active batch worker is running");
        self.instant(w, "requeued", current.task);
        self.workers[w].state = WorkerState::Idle;
        // Lost-then-recovered in one instant: the scheduler orphans the
        // task (requeueing it unless another replica still runs) and
        // immediately gets the worker back.
        self.lose_execution(w, Some((current.task, current.is_replica)));
        self.scheduler.on_worker_recovered(self.workers[w].id);
        self.schedule.schedule_now(Event::WorkerIdle(w));
        self.maybe_start_service(site);
    }

    /// The backoff elapsed: re-issue `site`'s pending fetch from the
    /// source the guard picks among the other sites that hold the file,
    /// are up and have a working route, else from the origin file server
    /// (even through a still-down route: the flow stalls and the next
    /// timeout fires, burning another attempt).
    fn handle_transfer_retry(&mut self, site: usize, epoch: u64) {
        let guard = self.xfer.as_mut().expect("retry implies a guard");
        debug_assert!(guard.is_live(site, epoch), "stale retry at site {site}");
        let Some(batch) = self.servers[site].active.as_ref() else {
            return;
        };
        debug_assert!(batch.current.is_none(), "retry implies no flow in flight");
        let now = self.schedule.now();
        let Some((file, remaining)) = guard.take_retry(site, now.as_secs()) else {
            return;
        };
        // The union route is up exactly when both sites' routes are.
        let routes = &self.site_routes;
        let candidates = (0..self.config.sites).filter(|&s| {
            s != site
                && !self.servers[s].down
                && self.stores[s].contains(file)
                && self.net.route_up(&routes[s].links)
                && self.net.route_up(&routes[site].links)
        });
        let (links, latency_s) = match guard.retry_source(site, candidates) {
            Some(src) => {
                self.ledger.xfer_failovers += 1;
                union_route(&self.site_routes, src, site)
            }
            None => {
                let route = &self.site_routes[site];
                (route.links.clone(), route.latency_s)
            }
        };
        let purpose = FlowPurpose::Batch { site };
        let fid = self
            .net
            .start_flow(now, &links, remaining, latency_s, purpose);
        self.ledger.flows_started += 1;
        let batch = self.servers[site].active.as_mut().expect("still active");
        batch.current = Some((file, fid));
        self.ledger.xfer_retries += 1;
        resync(&mut self.net, &mut self.schedule);
        let est = self.net.fair_share_estimate(&links);
        guard.arm(site, false, remaining, est, latency_s, &mut self.schedule);
    }

    /// A correlated burst strikes: one uniformly-drawn site loses up to
    /// `burst_size` live workers at once (lowest worker index first —
    /// deterministic, and the draws happen in a fixed order so the burst
    /// stream never depends on grid state). Victims repair through their
    /// own MTTR timelines like any independent crash.
    fn handle_burst_strike(&mut self) {
        // Post-completion the process stops re-arming, draining like the
        // per-entity churn processes.
        if self.scheduler.unfinished() == 0 {
            return;
        }
        let churn = self.churn.as_mut().expect("fault events imply churn");
        let (site, size) = churn.strike(self.config.sites);
        self.rearm_burst();
        let base = site * self.config.workers_per_site;
        let mut struck = 0usize;
        for w in base..base + self.config.workers_per_site {
            if struck >= size {
                break;
            }
            if matches!(self.workers[w].state, WorkerState::Down | WorkerState::Done) {
                continue;
            }
            self.handle_worker_crash(w);
            struck += 1;
        }
    }

    fn handle_worker_crash(&mut self, w: usize) {
        // Once the job is done the churn processes stop re-arming and
        // pending fault events drain without effect. A worker already
        // down (scripted + stochastic overlap) ignores the crash.
        if self.scheduler.unfinished() == 0 || self.workers[w].state == WorkerState::Down {
            return;
        }
        let torn = self.teardown_execution(w);
        self.workers[w].state = WorkerState::Down;
        self.ledger.worker_crashes += 1;
        self.open_window(Entity::Worker(w), true);
        // Feed the estimators: availability integral, failure
        // interarrival (the self-tuning Young/Daly's input) and the
        // site's circuit breaker.
        let site = self.workers[w].id.site.index();
        if let Some(plane) = self.control.as_mut() {
            plane.on_worker_crash(site, self.schedule.now().as_secs());
        }
        self.lose_execution(w, torn);
        self.rearm(Entity::Worker(w), false);
    }

    /// Hands worker `w`'s lost execution — `torn`, its task and whether it
    /// ran as a replica, or `None` when it ran nothing — back to the
    /// scheduler, and wakes parked workers when that requeued the task or
    /// freed a throttled replica slot. Bumps the worker's generation.
    fn lose_execution(&mut self, w: usize, torn: Option<(TaskId, bool)>) {
        let was_replica = torn.is_some_and(|(_, is_replica)| is_replica);
        if was_replica {
            self.ledger.replicas_lost += 1;
        }
        self.workers[w].generation += 1;
        let lost = torn.map(|(task, _)| task);
        if self.scheduler.on_worker_lost(self.workers[w].id, lost) {
            let task = lost.expect("orphaned implies an in-flight task");
            self.ledger.tasks_lost += 1;
            self.lost_ever[task.index()] = true;
            // The requeued task may be picked up by parked workers.
            self.wake_parked();
        } else if self.throttled && was_replica {
            // The loss freed a replica slot (task cap and/or site budget)
            // without orphaning anything; losses are rare enough that the
            // broad re-poll is the simple, safe hand-off.
            self.wake_parked();
        }
    }

    fn handle_worker_recover(&mut self, w: usize) {
        if self.workers[w].state != WorkerState::Down {
            return;
        }
        let site = self.workers[w].id.site.index();
        self.close_window(Entity::Worker(w));
        self.workers[w].state = WorkerState::Idle;
        if let Some(plane) = self.control.as_mut() {
            plane.on_worker_recover(site, self.schedule.now().as_secs());
        }
        self.scheduler.on_worker_recovered(self.workers[w].id);
        if self.scheduler.unfinished() == 0 {
            return;
        }
        self.schedule.schedule_now(Event::WorkerIdle(w));
        self.rearm(Entity::Worker(w), true);
    }

    fn handle_server_fail(&mut self, site: usize) {
        if self.scheduler.unfinished() == 0 || self.servers[site].down {
            return;
        }
        self.servers[site].down = true;
        self.ledger.server_outages += 1;
        self.open_window(Entity::Server(site), true);
        // The active batch dissolves: its in-flight transfer is aborted
        // and the request goes back to the head of the queue, to be
        // re-served (re-fetching whatever the outage lost) after repair.
        // The worker keeps waiting; its task stays assigned.
        if self.servers[site].active.is_some() {
            let w = self.dissolve_batch(site);
            let enqueued_at = self.now();
            let generation = self.workers[w].generation;
            self.servers[site].queue.push_front(BatchRequest {
                worker: w,
                generation,
                enqueued_at,
            });
            // The dissolved batch's worker goes back to waiting in queue.
            self.begin_span(w, "queued", self.workers[w].task());
        }
        // Inbound replication pushes have no destination anymore.
        let mut inbound: Vec<FlowId> = self
            .net
            .flows()
            .filter(|(_, p)| matches!(p, FlowPurpose::Replication { site: s, .. } if *s == site))
            .map(|(fid, _)| fid)
            .collect();
        inbound.sort_unstable();
        for fid in inbound {
            self.abort_flow(fid);
        }
        resync(&mut self.net, &mut self.schedule);
        // Checkpointing: in-flight image writes to this server and image
        // fetches *from* it die with it; every image it held is lost.
        if self.checkpointing.is_some() {
            self.abort_ckpt_flows_for_failed_server(site);
        }
        if let Some(ckpt) = self.checkpointing.as_mut() {
            ckpt.lose_server(site);
            // Running executions whose durable image just vanished have
            // nothing to fall back on anymore: a later crash wastes
            // everything they have computed, not just the tail.
            for current in self.workers.iter_mut().filter_map(|w| w.current.as_mut()) {
                if current.durable_s > 0.0 && ckpt.image(current.task).is_none() {
                    current.durable_flops = 0.0;
                    current.durable_s = 0.0;
                }
            }
        }
        // The outage loses every unpinned cached file.
        let lost = self.stores[site].fail();
        self.ledger.per_site[site].files_lost += lost.len() as u64;
        for f in lost {
            let refs = self.stores[site].ref_count(f);
            self.file_gone(site, f, refs);
        }
        self.rearm(Entity::Server(site), false);
    }

    /// Aborts every checkpoint flow the failure of `site`'s data server
    /// invalidates: image writes by this site's workers (they drop the
    /// image and keep computing) and image fetches sourced from this
    /// server (the restoring worker loses its image and restarts from
    /// scratch — its input files are already pinned locally).
    fn abort_ckpt_flows_for_failed_server(&mut self, site: usize) {
        let mut writes: Vec<(FlowId, usize)> = Vec::new();
        let mut restores: Vec<(FlowId, usize)> = Vec::new();
        for (fid, &p) in self.net.flows() {
            match p {
                FlowPurpose::Checkpoint { worker }
                    if self.workers[worker].id.site.index() == site =>
                {
                    writes.push((fid, worker));
                }
                FlowPurpose::Restore { worker, from_site } if from_site == site => {
                    restores.push((fid, worker));
                }
                _ => {}
            }
        }
        writes.sort_unstable();
        restores.sort_unstable();
        for &(fid, _) in writes.iter().chain(&restores) {
            self.abort_flow(fid);
        }
        resync(&mut self.net, &mut self.schedule);
        for &(_, w) in &writes {
            self.end_ckpt_flow(w);
            self.begin_compute_segment(w);
        }
        for &(_, w) in &restores {
            self.end_ckpt_flow(w);
            let current = self.workers[w].running();
            current.progress_flops = 0.0;
            current.progress_s = 0.0;
            current.durable_flops = 0.0;
            current.durable_s = 0.0;
            self.begin_compute_segment(w);
        }
    }

    fn handle_server_recover(&mut self, site: usize) {
        if !self.servers[site].down {
            return;
        }
        self.servers[site].down = false;
        self.close_window(Entity::Server(site));
        self.maybe_start_service(site);
        if self.scheduler.unfinished() == 0 {
            return;
        }
        self.rearm(Entity::Server(site), true);
    }

    // ----- reporting ------------------------------------------------------

    /// Where downtime accounting stops: availability is measured against
    /// the job's makespan, so once the last task has completed, repairs
    /// that drain later must not accrue further downtime.
    fn downtime_end(&self) -> SimTime {
        if self.scheduler.unfinished() == 0 {
            self.now().min(self.last_completion)
        } else {
            self.now()
        }
    }

    fn report(&self) -> MetricsReport {
        let ledger = &self.ledger;
        // Replica books must balance: every launched replica either won,
        // was cancelled by the winner, or died with its worker.
        assert_eq!(
            ledger.replicas_launched,
            ledger.replicas_cancelled + ledger.replicas_completed + ledger.replicas_lost,
            "replica accounting out of balance"
        );
        // Flow conservation: every flow ever started either completed,
        // was aborted by a teardown, was cancelled into a retry/requeue
        // by the transfer guard, or is still stalled in the drained net
        // (a severed route with nothing left to wake it).
        assert_eq!(
            ledger.flows_started,
            ledger.flows_completed
                + ledger.flows_aborted
                + ledger.flows_retrying
                + ledger.flows_requeued
                + self.net.active_flows() as u64,
            "flow conservation out of balance"
        );
        let (checkpoints_written, checkpoints_lost) = self
            .checkpointing
            .as_ref()
            .map_or((0, 0), Checkpointing::totals);
        MetricsReport {
            config: self.config.summary(),
            makespan_minutes: self.last_completion.as_minutes(),
            file_transfers: ledger.per_site.iter().map(|s| s.file_transfers).sum(),
            bytes_transferred: ledger.per_site.iter().map(|s| s.bytes_transferred).sum(),
            events_dispatched: self.schedule.dispatched(),
            total_evictions: ledger.per_site.iter().map(|s| s.evictions).sum(),
            overflow_inserts: self.stores.iter().map(|s| s.stats().overflow_inserts).sum(),
            files_lost: ledger.per_site.iter().map(|s| s.files_lost).sum(),
            checkpoints_written,
            checkpoints_lost,
            ..ledger.clone()
        }
    }
}

/// Re-aims the flow-completion event after any change to the flow set:
/// the schedule's armed event is the next completion, or nothing when no
/// flow can complete. Arming replaces the previous completion in place and
/// takes a fresh sequence number, exactly as cancelling it and scheduling
/// the new one would (see [`Schedule::arm`]), so the completion never
/// enters the event heap and dispatch order is unchanged. A resync that
/// another one at the same instant would replace before any event
/// dispatches may be skipped: skipping it moves no surviving event's place
/// in the `(time, sequence)` order.
fn resync(net: &mut NetSim<FlowPurpose>, schedule: &mut Schedule<Event>) {
    match net.next_completion() {
        Some((t, fid)) => schedule.arm(t, Event::FlowDone(fid)),
        None => schedule.disarm(),
    }
}

/// The replica-to-replica transfer route between two sites with routes
/// `routes` to the file server: source site → backbone → destination site
/// (shared links crossed once), plus summed latency. Failover re-fetches
/// and checkpoint restores both travel it.
fn union_route(routes: &[Arc<Route>], from: usize, to: usize) -> (Vec<EdgeId>, f64) {
    let (src, dst) = (&routes[from], &routes[to]);
    let mut links = Vec::with_capacity(src.links.len() + dst.links.len());
    links.extend_from_slice(&src.links);
    for &l in &dst.links {
        if !links.contains(&l) {
            links.push(l);
        }
    }
    (links, src.latency_s + dst.latency_s)
}

/// Builds the scheduler for a strategy kind. `throttle` is the *effective*
/// replica throttle — the configured one, or the adaptive controller's
/// starting cap when the throttle loop runs with no configured bounds.
fn build_scheduler(config: &SimConfig, throttle: ReplicaThrottle) -> Box<dyn Scheduler> {
    let wl = config.workload.clone();
    match config.strategy {
        StrategyKind::StorageAffinity => Box::new(
            StorageAffinity::new(wl)
                .with_eval_mode(config.eval_mode)
                .with_throttle(throttle),
        ),
        StrategyKind::Workqueue => Box::new(Workqueue::new(wl)),
        StrategyKind::Sufferage => Box::new(Sufferage::new(wl).with_eval_mode(config.eval_mode)),
        kind => {
            let metric = kind
                .metric()
                .expect("worker-centric strategies have a metric");
            let n = config.choose_n_override.unwrap_or_else(|| kind.choose_n());
            Box::new(
                WorkerCentric::new(wl, metric, n, config.seed).with_eval_mode(config.eval_mode),
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use rand::Rng;

    use gridsched_workload::coadd::CoaddConfig;
    use gridsched_workload::Workload;

    fn small_config(strategy: StrategyKind) -> SimConfig {
        let wl = Arc::new(CoaddConfig::small(0).generate());
        SimConfig::paper(wl, strategy)
            .with_sites(3)
            .with_capacity(400)
            .with_seed(1)
    }

    #[test]
    fn completes_all_tasks_worker_centric() {
        for strategy in [
            StrategyKind::Overlap,
            StrategyKind::Rest,
            StrategyKind::Combined,
            StrategyKind::Rest2,
            StrategyKind::Combined2,
            StrategyKind::Workqueue,
        ] {
            let report = GridSim::new(small_config(strategy)).run();
            assert_eq!(report.tasks_completed, 200, "{strategy}");
            assert!(report.makespan_minutes > 0.0, "{strategy}");
            assert!(report.file_transfers > 0, "{strategy}");
            assert_eq!(report.replicas_launched, 0, "{strategy} never replicates");
        }
    }

    #[test]
    fn completes_all_tasks_storage_affinity() {
        let report = GridSim::new(small_config(StrategyKind::StorageAffinity)).run();
        assert_eq!(report.tasks_completed, 200);
        assert!(report.makespan_minutes > 0.0);
        // Fault-free: every launched replica either won or was cancelled.
        assert_eq!(
            report.replicas_launched,
            report.replicas_cancelled + report.replicas_completed
        );
        assert_eq!(report.replicas_lost, 0);
    }

    #[test]
    fn throttled_storage_affinity_completes_with_fewer_replicas() {
        let uncapped = GridSim::new(small_config(StrategyKind::StorageAffinity)).run();
        let capped = GridSim::new(
            small_config(StrategyKind::StorageAffinity)
                .with_replica_cap(1)
                .with_site_replica_budget(2),
        )
        .run();
        assert_eq!(capped.tasks_completed, 200);
        assert!(
            capped.replicas_launched <= uncapped.replicas_launched,
            "throttle must not inflate the replica count: {} vs {}",
            capped.replicas_launched,
            uncapped.replicas_launched
        );
        assert_eq!(
            capped.replicas_launched,
            capped.replicas_cancelled + capped.replicas_completed
        );
        assert_eq!(capped.config.replica_throttle, "cap=1 site-budget=2");
        // Throttled runs are just as deterministic.
        let again = GridSim::new(
            small_config(StrategyKind::StorageAffinity)
                .with_replica_cap(1)
                .with_site_replica_budget(2),
        )
        .run();
        assert_eq!(capped, again);
    }

    #[test]
    fn throttled_churned_run_completes() {
        // Liveness under the throttle's targeted wake-ups: crashes orphan
        // tasks whose only route back is replication, and parked workers
        // must be woken to pick them up.
        let config = small_config(StrategyKind::StorageAffinity)
            .with_replica_cap(1)
            .with_site_replica_budget(1)
            .with_faults(gridsched_faults::FaultConfig::none().with_worker_faults(2_500.0, 400.0));
        let report = GridSim::new(config).run();
        assert_eq!(report.tasks_completed, 200);
        assert_eq!(
            report.replicas_launched,
            report.replicas_cancelled + report.replicas_completed + report.replicas_lost
        );
    }

    #[test]
    #[should_panic(expected = "only applies to storage-affinity")]
    fn throttle_with_worker_centric_strategy_panics() {
        let _ = GridSim::new(small_config(StrategyKind::Rest).with_replica_cap(1));
    }

    #[test]
    fn push_attempts_on_empty_slates_leave_rng_and_later_decisions_unchanged() {
        // Regression for the `maybe_replicate` determinism hazard: a push
        // attempt during a full-coverage or all-servers-down window must
        // not consume the placement RNG (so later pushes land exactly
        // where they would have), full coverage must exhaust the file
        // (no more O(S) re-scans while coverage holds, re-armed when a
        // copy is lost), and an outage window must only *defer* the push.
        let wl = Arc::new(CoaddConfig::small(0).generate());
        let config = SimConfig::paper(wl, StrategyKind::Rest)
            .with_sites(3)
            .with_replication(crate::replication::ReplicationConfig {
                popularity_threshold: 1,
                max_replicas_per_file: 5,
            });
        let mut sim = GridSim::new(config);
        let probe = |sim: &GridSim| {
            let rep = sim.replication.as_ref().expect("enabled");
            rep.rng.clone().gen_range(0..1_000_000u64)
        };
        let f = FileId(0);
        // Full coverage: every non-origin store already holds `f`.
        for s in 1..3 {
            let evicted = sim.stores[s].insert(f);
            assert!(evicted.is_empty());
        }
        let before = probe(&sim);
        sim.maybe_replicate(&[f], 0);
        assert_eq!(sim.ledger.replication_pushes, 0, "nowhere to push");
        assert_eq!(
            probe(&sim),
            before,
            "full-coverage slate must not advance the RNG"
        );
        // Exhaustion holds while coverage holds: no re-scan, no draw.
        sim.maybe_replicate(&[f], 0);
        assert_eq!(
            sim.ledger.replication_pushes, 0,
            "exhausted file stays inert"
        );
        // All-servers-down window: skipped draw, but the file stays
        // eligible and pushes as soon as a server is back.
        let g = FileId(1);
        sim.servers[1].down = true;
        sim.servers[2].down = true;
        sim.maybe_replicate(&[g], 0);
        assert_eq!(sim.ledger.replication_pushes, 0, "outage blocks the push");
        assert_eq!(
            probe(&sim),
            before,
            "outage-window slate must not advance the RNG"
        );
        sim.servers[1].down = false;
        sim.servers[2].down = false;
        sim.maybe_replicate(&[g], 0);
        assert_eq!(
            sim.ledger.replication_pushes, 1,
            "outage only defers the push"
        );
        assert_ne!(
            probe(&sim),
            before,
            "the deferred push consumes exactly the draw it always would"
        );
        // A lost copy re-arms an exhausted file (the engine forwards every
        // eviction/outage loss through `on_copy_lost`): the next reference
        // pushes `f` to the now-empty site after all.
        let lost = sim.stores[2].fail();
        assert!(lost.contains(&f));
        for e in lost {
            sim.replication.as_mut().expect("enabled").on_copy_lost(e);
        }
        sim.maybe_replicate(&[f], 0);
        assert_eq!(
            sim.ledger.replication_pushes, 2,
            "broken coverage re-arms f"
        );
    }

    #[test]
    fn empty_push_slate_leaves_rng_untouched() {
        // Regression: `maybe_replicate` used to draw from the replication
        // RNG even when no site could receive the push (full coverage or
        // an outage window), so transient state shifted every later
        // placement. The draw must be skipped entirely, scored or not.
        let config = crate::replication::ReplicationConfig::default();
        let mut st = ReplicationState::new(config, 1, 42);
        let mut untouched = st.rng.clone();
        assert_eq!(st.pick_target(vec![], None), None);
        assert_eq!(st.pick_target(vec![], Some(&[])), None);
        assert_eq!(
            st.rng.gen_range(0..1_000_000),
            untouched.gen_range(0..1_000_000),
            "empty slates must not advance the stream"
        );
        // Non-empty slates still consume exactly one draw each.
        let picked = st.pick_target(vec![3, 5, 9], None).expect("non-empty");
        assert!([3, 5, 9].contains(&picked));
        assert_ne!(
            st.rng.gen_range(0..1_000_000),
            untouched.gen_range(0..1_000_000),
            "a real pick consumes the stream"
        );
    }

    #[test]
    fn deterministic_runs() {
        let a = GridSim::new(small_config(StrategyKind::Rest2)).run();
        let b = GridSim::new(small_config(StrategyKind::Rest2)).run();
        assert_eq!(a, b, "same config ⇒ identical report");
    }

    #[test]
    fn seeds_change_results() {
        let a = GridSim::new(small_config(StrategyKind::Rest2)).run();
        let b = GridSim::new(small_config(StrategyKind::Rest2).with_seed(2)).run();
        assert_ne!(
            a.makespan_minutes, b.makespan_minutes,
            "different seeds should differ"
        );
    }

    #[test]
    fn transfers_bounded_by_accesses() {
        let report = GridSim::new(small_config(StrategyKind::Rest)).run();
        let wl = CoaddConfig::small(0).generate();
        let total_accesses: u64 = wl.tasks().iter().map(|t| t.file_count() as u64).sum();
        assert!(report.file_transfers <= total_accesses);
        // With data reuse, transfers should be well below total accesses.
        assert!(
            (report.file_transfers as f64) < 0.9 * total_accesses as f64,
            "reuse should eliminate many transfers: {} vs {}",
            report.file_transfers,
            total_accesses
        );
    }

    #[test]
    fn locality_beats_workqueue_on_transfers() {
        let rest = GridSim::new(small_config(StrategyKind::Rest)).run();
        let wq = GridSim::new(small_config(StrategyKind::Workqueue)).run();
        assert!(
            rest.file_transfers < wq.file_transfers,
            "rest ({}) should transfer fewer files than workqueue ({})",
            rest.file_transfers,
            wq.file_transfers
        );
    }

    #[test]
    fn tiny_capacity_still_completes() {
        // Capacity barely above the largest task: heavy thrash, but no
        // deadlock and no capacity violation beyond pinned overflow.
        let wl = Arc::new(CoaddConfig::small(0).generate());
        let max_task = wl.tasks().iter().map(|t| t.file_count()).max().unwrap();
        let config = SimConfig::paper(wl, StrategyKind::Rest)
            .with_sites(2)
            .with_capacity(max_task + 5)
            .with_seed(3);
        let report = GridSim::new(config).run();
        assert_eq!(report.tasks_completed, 200);
        assert!(report.total_evictions > 0, "thrash expected");
    }

    #[test]
    fn single_site_single_worker() {
        let wl = Arc::new(CoaddConfig::small(1).generate());
        let config = SimConfig::paper(wl, StrategyKind::Combined)
            .with_sites(1)
            .with_seed(4);
        let report = GridSim::new(config).run();
        assert_eq!(report.tasks_completed, 200);
        assert_eq!(report.per_site.len(), 1);
        assert_eq!(report.per_site[0].requests, 200);
    }

    #[test]
    fn multi_worker_site_contends() {
        let wl = Arc::new(CoaddConfig::small(2).generate());
        let config = SimConfig::paper(wl, StrategyKind::Rest)
            .with_sites(2)
            .with_workers_per_site(4)
            .with_seed(5);
        let report = GridSim::new(config).run();
        assert_eq!(report.tasks_completed, 200);
        // With several workers per site, requests queue behind each other.
        let waited: f64 = report.per_site.iter().map(|s| s.waiting_time_s).sum();
        assert!(waited > 0.0, "queueing must appear with 4 workers/site");
    }

    #[test]
    fn replication_extension_pushes_files() {
        let wl = Arc::new(CoaddConfig::small(0).generate());
        let config = SimConfig::paper(wl, StrategyKind::Rest)
            .with_sites(3)
            .with_seed(6)
            .with_replication(crate::replication::ReplicationConfig {
                popularity_threshold: 2,
                max_replicas_per_file: 1,
            });
        let report = GridSim::new(config).run();
        assert_eq!(report.tasks_completed, 200);
        assert!(report.replication_pushes > 0);
        assert!(report.replication_bytes > 0.0);
    }

    #[test]
    fn fixed_speed_makespan_sanity() {
        // One site, one worker, fixed speed: makespan must exceed the pure
        // compute lower bound and the pure transfer lower bound.
        let wl = Arc::new(CoaddConfig::small(3).generate());
        let total_flops: f64 = wl.tasks().iter().map(|t| t.flops).sum();
        let speed = 1e11;
        let config = SimConfig::paper(Arc::clone(&wl), StrategyKind::Workqueue)
            .with_sites(1)
            .with_speeds(SpeedModelFixed(speed))
            .with_seed(7);
        let report = GridSim::new(config).run();
        let compute_minutes = total_flops / speed / 60.0;
        assert!(
            report.makespan_minutes >= compute_minutes,
            "makespan {} must cover compute {}",
            report.makespan_minutes,
            compute_minutes
        );
    }

    // Local alias so the test reads naturally.
    #[allow(non_snake_case)]
    fn SpeedModelFixed(s: f64) -> crate::speeds::SpeedModel {
        crate::speeds::SpeedModel::Fixed(s)
    }

    #[test]
    fn worker_churn_completes_with_reexecutions() {
        let config = small_config(StrategyKind::Rest2)
            .with_faults(gridsched_faults::FaultConfig::none().with_worker_faults(3_000.0, 400.0));
        let report = GridSim::new(config).run();
        assert_eq!(report.tasks_completed, 200);
        assert!(report.worker_crashes > 0, "churn must inject crashes");
        assert!(report.re_executions >= report.tasks_lost);
        assert!(report.mean_worker_availability() < 1.0);
    }

    #[test]
    fn server_churn_completes_and_loses_files() {
        let config = small_config(StrategyKind::StorageAffinity)
            .with_faults(gridsched_faults::FaultConfig::none().with_server_faults(15_000.0, 900.0));
        let report = GridSim::new(config).run();
        assert_eq!(report.tasks_completed, 200);
        assert!(report.server_outages > 0, "churn must inject outages");
        assert!(report.mean_server_availability() < 1.0);
    }

    #[test]
    fn checkpointing_saves_work_under_churn() {
        let faulty = || {
            small_config(StrategyKind::Rest2).with_faults(
                gridsched_faults::FaultConfig::none().with_worker_faults(3_000.0, 400.0),
            )
        };
        let plain = GridSim::new(faulty()).run();
        let ckpt = GridSim::new(
            faulty().with_checkpointing(gridsched_checkpoint::CheckpointConfig::fixed(300.0)),
        )
        .run();
        assert_eq!(ckpt.tasks_completed, 200);
        assert!(ckpt.checkpoints_written > 0, "churned run must checkpoint");
        assert!(ckpt.work_saved_s > 0.0, "resumes must rescue work");
        assert!(ckpt.checkpoint_restores > 0);
        assert!(
            ckpt.wasted_compute_s < plain.wasted_compute_s,
            "checkpointing must cut re-executed compute: {} vs {}",
            ckpt.wasted_compute_s,
            plain.wasted_compute_s
        );
        // Fault-free metrics of the checkpoint run stay self-consistent.
        assert!(ckpt.checkpoint_overhead_s > 0.0);
        assert_eq!(plain.checkpoints_written, 0);
        assert_eq!(plain.work_saved_s, 0.0);
    }

    #[test]
    fn young_daly_derives_interval_from_fault_model() {
        let config = small_config(StrategyKind::Workqueue)
            .with_faults(gridsched_faults::FaultConfig::none().with_worker_faults(2_500.0, 300.0))
            .with_checkpointing(gridsched_checkpoint::CheckpointConfig::young_daly());
        let report = GridSim::new(config).run();
        assert_eq!(report.tasks_completed, 200);
        assert!(report.checkpoints_written > 0);
        assert_eq!(report.config.checkpointing, "young-daly image=25MB");
    }

    #[test]
    #[should_panic(expected = "needs a worker MTBF")]
    fn young_daly_without_faults_panics() {
        let config = small_config(StrategyKind::Rest)
            .with_checkpointing(gridsched_checkpoint::CheckpointConfig::young_daly());
        let _ = GridSim::new(config);
    }

    #[test]
    fn inert_checkpoint_config_is_invisible() {
        let faulty = || {
            small_config(StrategyKind::StorageAffinity).with_faults(
                gridsched_faults::FaultConfig::none().with_worker_faults(4_000.0, 500.0),
            )
        };
        let a = GridSim::new(faulty()).run();
        let b = GridSim::new(
            faulty().with_checkpointing(gridsched_checkpoint::CheckpointConfig::none()),
        )
        .run();
        assert_eq!(a, b, "policy none must reproduce the churn engine exactly");
    }

    #[test]
    fn checkpointing_without_faults_only_adds_overhead() {
        let config = small_config(StrategyKind::Combined)
            .with_checkpointing(gridsched_checkpoint::CheckpointConfig::fixed(120.0));
        let report = GridSim::new(config).run();
        assert_eq!(report.tasks_completed, 200);
        assert!(report.checkpoints_written > 0);
        // Nothing ever crashes, so nothing is restored or lost.
        assert_eq!(report.checkpoint_restores, 0);
        assert_eq!(report.checkpoints_lost, 0);
        assert_eq!(report.work_saved_s, 0.0);
        assert!(report.checkpoint_overhead_s > 0.0);
    }

    #[test]
    fn checkpointed_churn_is_deterministic() {
        let config = || {
            small_config(StrategyKind::Combined2)
                .with_faults(
                    gridsched_faults::FaultConfig::none()
                        .with_worker_faults(3_500.0, 450.0)
                        .with_server_faults(20_000.0, 700.0),
                )
                .with_checkpointing(gridsched_checkpoint::CheckpointConfig::fixed(400.0))
        };
        let a = GridSim::new(config()).run();
        let b = GridSim::new(config()).run();
        assert_eq!(a, b, "checkpointing broke determinism");
    }

    #[test]
    fn weibull_repairs_change_downtime_not_crash_count() {
        let cfg = |shape: f64| {
            small_config(StrategyKind::Rest).with_faults(
                gridsched_faults::FaultConfig::none()
                    .with_worker_faults(3_000.0, 400.0)
                    .with_worker_repair_shape(shape),
            )
        };
        let exp = GridSim::new(cfg(1.0)).run();
        let fat = GridSim::new(cfg(0.5)).run();
        assert_eq!(exp.tasks_completed, 200);
        assert_eq!(fat.tasks_completed, 200);
        // Shape 1.0 must match the legacy exponential engine exactly.
        let legacy =
            GridSim::new(small_config(StrategyKind::Rest).with_faults(
                gridsched_faults::FaultConfig::none().with_worker_faults(3_000.0, 400.0),
            ))
            .run();
        assert_eq!(exp.makespan_minutes, legacy.makespan_minutes);
        // A different shape must actually change the run.
        assert_ne!(fat.makespan_minutes, exp.makespan_minutes);
    }

    #[test]
    fn combined_churn_is_deterministic() {
        let config = || {
            small_config(StrategyKind::Combined2).with_faults(
                gridsched_faults::FaultConfig::none()
                    .with_worker_faults(4_000.0, 500.0)
                    .with_server_faults(25_000.0, 800.0),
            )
        };
        let a = GridSim::new(config()).run();
        let b = GridSim::new(config()).run();
        assert_eq!(a, b, "fault injection broke determinism");
    }

    #[test]
    fn burst_churn_completes_and_is_deterministic() {
        let config = || {
            small_config(StrategyKind::Rest2).with_faults(
                gridsched_faults::FaultConfig::none()
                    .with_worker_faults(3_000.0, 400.0)
                    .with_worker_bursts(4_000.0, 2),
            )
        };
        let a = GridSim::new(config()).run();
        let b = GridSim::new(config()).run();
        assert_eq!(a, b, "bursts broke determinism");
        assert_eq!(a.tasks_completed, 200);
        assert!(a.worker_crashes > 0);
        assert!(a.config.faults.contains("bursts rate=4000s size=2"));
    }

    #[test]
    #[should_panic(expected = "correlated crash bursts need worker faults")]
    fn bursts_without_worker_faults_panic() {
        let config = small_config(StrategyKind::Rest).with_faults(
            gridsched_faults::FaultConfig::none()
                .with_server_faults(20_000.0, 900.0)
                .with_worker_bursts(3_000.0, 2),
        );
        let _ = GridSim::new(config);
    }

    #[test]
    fn adaptive_throttle_completes_and_is_deterministic() {
        use gridsched_core::ControlConfig;
        let config = || {
            small_config(StrategyKind::StorageAffinity).with_control(
                ControlConfig::none()
                    .with_adaptive_throttle()
                    .with_tick_s(120.0),
            )
        };
        let a = GridSim::new(config()).run();
        let b = GridSim::new(config()).run();
        assert_eq!(a, b, "the throttle controller broke determinism");
        assert_eq!(a.tasks_completed, 200);
        // The summary reports the *configured* throttle (none — the
        // controller's starting cap is runtime state) plus the loop.
        assert_eq!(a.config.replica_throttle, "none");
        assert_eq!(a.config.control, "throttle tick=120s");
        // The adaptive run is throttled from the start, so speculation
        // stays at or below the uncapped baseline.
        let uncapped = GridSim::new(small_config(StrategyKind::StorageAffinity)).run();
        assert!(
            a.replicas_launched <= uncapped.replicas_launched,
            "adaptive throttle must not inflate replicas: {} vs {}",
            a.replicas_launched,
            uncapped.replicas_launched
        );
    }

    #[test]
    #[should_panic(expected = "adaptive replica throttle only applies to storage-affinity")]
    fn adaptive_throttle_with_worker_centric_strategy_panics() {
        use gridsched_core::ControlConfig;
        let config = small_config(StrategyKind::Rest)
            .with_control(ControlConfig::none().with_adaptive_throttle());
        let _ = GridSim::new(config);
    }

    #[test]
    fn churn_placement_under_bursts_completes_and_is_deterministic() {
        use gridsched_core::ControlConfig;
        let config = || {
            small_config(StrategyKind::Rest2)
                .with_faults(
                    gridsched_faults::FaultConfig::none()
                        .with_worker_faults(2_500.0, 600.0)
                        .with_worker_bursts(3_000.0, 1),
                )
                .with_control(
                    ControlConfig::none()
                        .with_churn_placement()
                        .with_tick_s(120.0),
                )
        };
        let a = GridSim::new(config()).run();
        assert_eq!(a.tasks_completed, 200);
        let b = GridSim::new(config()).run();
        assert_eq!(a, b, "breaker gating broke determinism");
    }

    #[test]
    fn adaptive_young_daly_checkpoints_without_declared_mtbf() {
        use gridsched_core::ControlConfig;
        let config = small_config(StrategyKind::Workqueue)
            .with_faults(gridsched_faults::FaultConfig::none().with_worker_faults(2_500.0, 300.0))
            .with_checkpointing(gridsched_checkpoint::CheckpointConfig::young_daly_adaptive())
            .with_control(
                ControlConfig::none()
                    .with_adaptive_checkpoint()
                    .with_tick_s(300.0),
            );
        let report = GridSim::new(config).run();
        assert_eq!(report.tasks_completed, 200);
        assert!(
            report.checkpoints_written > 0,
            "the loop must switch checkpointing on once failures are observed"
        );
        assert_eq!(
            report.config.checkpointing,
            "young-daly-adaptive image=25MB"
        );
    }

    #[test]
    #[should_panic(expected = "young-daly-adaptive checkpointing needs the adaptive-checkpoint")]
    fn adaptive_young_daly_without_the_loop_panics() {
        let config = small_config(StrategyKind::Workqueue)
            .with_faults(gridsched_faults::FaultConfig::none().with_worker_faults(2_500.0, 300.0))
            .with_checkpointing(gridsched_checkpoint::CheckpointConfig::young_daly_adaptive());
        let _ = GridSim::new(config);
    }

    #[test]
    fn workload_type_reexport_sanity() {
        // Guard against accidental API drift: the engine consumes the same
        // Workload type the workload crate exports.
        fn takes(_: &Workload) {}
        let wl = CoaddConfig::small(0).generate();
        takes(&wl);
    }

    // ----- network faults & transfer resilience ---------------------------

    #[test]
    fn stochastic_link_faults_with_guard_complete_and_are_deterministic() {
        let config = || {
            small_config(StrategyKind::Rest)
                .with_faults(gridsched_faults::FaultConfig::none().with_link_faults(4_000.0, 600.0))
                .with_transfer_timeout(3.0)
                .with_transfer_retries(4)
                .with_retry_backoff(30.0)
        };
        let a = GridSim::new(config()).run();
        assert_eq!(a.tasks_completed, 200);
        assert!(a.link_outages > 0, "the MTBF must bite within the run");
        assert!(a.link_downtime_s > 0.0);
        // Flow conservation (also asserted in report()).
        assert_eq!(
            a.flows_started,
            a.flows_completed + a.flows_aborted + a.flows_retrying + a.flows_requeued
        );
        let b = GridSim::new(config()).run();
        assert_eq!(a, b, "link faults + guard broke determinism");
    }

    #[test]
    fn degraded_link_windows_complete_without_a_guard() {
        // Degraded windows slow flows down but never stall them, so no
        // transfer guard is needed for liveness.
        let report = GridSim::new(
            small_config(StrategyKind::Rest2).with_faults(
                gridsched_faults::FaultConfig::none()
                    .with_link_faults(3_000.0, 900.0)
                    .with_link_degrade_factor(0.25),
            ),
        )
        .run();
        assert_eq!(report.tasks_completed, 200);
        assert!(report.link_outages > 0);
        assert_eq!(report.xfer_timeouts, 0, "no guard configured");
    }

    #[test]
    fn scripted_link_outage_accounts_downtime_and_heals() {
        let trace =
            gridsched_faults::FaultTrace::parse("600 link-down 0\n2400 link-up 0").expect("parses");
        let report = GridSim::new(
            small_config(StrategyKind::Workqueue)
                .with_faults(gridsched_faults::FaultConfig::none().with_trace(trace)),
        )
        .run();
        assert_eq!(report.tasks_completed, 200);
        assert_eq!(report.link_outages, 1);
        assert!(
            report.link_downtime_s > 0.0,
            "the outage window must accrue downtime"
        );
    }

    #[test]
    fn scripted_partition_with_guard_times_out_and_completes() {
        // Site 0 is cut off for its first busy stretch; the guard turns
        // the stalled fetches into retries (and, budget spent, requeues)
        // instead of waiting out the whole partition.
        let trace = gridsched_faults::FaultTrace::parse("60 partition 0\n6000 partition-heal 0")
            .expect("parses");
        let config = || {
            small_config(StrategyKind::Rest)
                .with_faults(gridsched_faults::FaultConfig::none().with_trace(trace.clone()))
                .with_transfer_timeout(2.0)
                .with_transfer_retries(2)
                .with_retry_backoff(60.0)
        };
        let a = GridSim::new(config()).run();
        assert_eq!(a.tasks_completed, 200);
        assert!(
            a.xfer_timeouts > 0,
            "stalled fetches behind the partition must hit the deadline"
        );
        assert!(a.xfer_retries > 0 || a.flows_requeued > 0);
        assert_eq!(
            a.flows_started,
            a.flows_completed + a.flows_aborted + a.flows_retrying + a.flows_requeued
        );
        let b = GridSim::new(config()).run();
        assert_eq!(a, b, "partition + guard broke determinism");
    }

    #[test]
    fn server_outage_during_a_retry_backoff_dissolves_the_waiting_batch() {
        // Site 0 is cut off at 60 s; its stalled fetch times out within a
        // few minutes and then waits out a backoff of at least 2,500 s.
        // The outage at 1,500 s dissolves the batch while no flow is in
        // flight, so nothing is aborted and the armed retry is cancelled:
        // every other timeout's retry is issued, that one never is.
        let trace = gridsched_faults::FaultTrace::parse(
            "60 partition 0\n1500 server-fail 0\n1600 server-recover 0\n6000 partition-heal 0",
        )
        .expect("parses");
        let config = || {
            small_config(StrategyKind::Rest)
                .with_faults(gridsched_faults::FaultConfig::none().with_trace(trace.clone()))
                .with_transfer_timeout(2.0)
                .with_transfer_retries(3)
                .with_retry_backoff(5_000.0)
        };
        let a = GridSim::new(config()).run();
        assert_eq!(a.tasks_completed, 200);
        assert_eq!(a.server_outages, 1);
        assert!(a.xfer_timeouts >= 1);
        assert_eq!(a.flows_aborted, 0, "no flow was in flight at the outage");
        assert_eq!(
            a.flows_retrying,
            a.xfer_retries + 1,
            "the outage cancelled exactly one armed retry"
        );
        assert_eq!(
            a.flows_started,
            a.flows_completed + a.flows_aborted + a.flows_retrying + a.flows_requeued
        );
        let b = GridSim::new(config()).run();
        assert_eq!(a, b, "outage during a backoff broke determinism");
    }

    #[test]
    fn guard_on_a_healthy_run_never_fires() {
        // The deadline is timeout_mult × an upper bound on the transfer
        // time (the fair-share estimate lower-bounds the max–min rate),
        // so on a fault-free run no timeout can ever dispatch — the
        // guarded run's behaviour matches the unguarded run exactly.
        let base = GridSim::new(small_config(StrategyKind::StorageAffinity)).run();
        let guarded = GridSim::new(
            small_config(StrategyKind::StorageAffinity)
                .with_transfer_timeout(1.5)
                .with_transfer_retries(3)
                .with_retry_backoff(30.0),
        )
        .run();
        assert_eq!(guarded.xfer_timeouts, 0);
        assert_eq!(guarded.flows_retrying, 0);
        assert_eq!(guarded.flows_requeued, 0);
        assert_eq!(guarded.makespan_minutes, base.makespan_minutes);
        assert_eq!(guarded.file_transfers, base.file_transfers);
        assert_eq!(guarded.events_dispatched, base.events_dispatched);
        assert_eq!(guarded.per_site, base.per_site);
    }

    #[test]
    fn naive_retry_retransmits_what_resume_keeps() {
        // Under the same flap storm, restart-from-zero re-sends delivered
        // bytes that partial-transfer resume keeps.
        let trace = gridsched_faults::FaultTrace::parse(
            "300 link-down 0\n1500 link-up 0\n2400 link-down 0\n3600 link-up 0",
        )
        .expect("parses");
        let config = |naive: bool| {
            let c = small_config(StrategyKind::Rest)
                .with_faults(gridsched_faults::FaultConfig::none().with_trace(trace.clone()))
                .with_transfer_timeout(2.0)
                .with_transfer_retries(5)
                .with_retry_backoff(30.0);
            if naive {
                c.with_naive_retry()
            } else {
                c
            }
        };
        let resume = GridSim::new(config(false)).run();
        let naive = GridSim::new(config(true)).run();
        assert_eq!(resume.tasks_completed, 200);
        assert_eq!(naive.tasks_completed, 200);
        assert!(resume.xfer_timeouts > 0, "the flap storm must bite");
        assert!(naive.xfer_timeouts > 0, "the flap storm must bite");
        assert_eq!(resume.xfer_bytes_retransmitted, 0.0);
        assert_eq!(naive.xfer_bytes_resumed, 0.0);
        // Byte math stays sound either way: both runs moved at least one
        // full file per transfer they completed.
        assert!(resume.bytes_transferred > 0.0);
        assert!(naive.bytes_transferred >= resume.bytes_transferred - 1e-6);
    }

    #[test]
    #[should_panic(expected = "references worker")]
    fn trace_with_out_of_range_worker_panics() {
        // `small_config` runs one worker per site.
        let trace = gridsched_faults::FaultTrace::parse("600 worker-crash 0 1").expect("parses");
        let _ = GridSim::new(
            small_config(StrategyKind::Rest)
                .with_faults(gridsched_faults::FaultConfig::none().with_trace(trace)),
        );
    }

    #[test]
    #[should_panic(expected = "references link")]
    fn trace_with_out_of_range_link_panics() {
        let trace = gridsched_faults::FaultTrace::parse("600 link-down 9999").expect("parses");
        let _ = GridSim::new(
            small_config(StrategyKind::Rest)
                .with_faults(gridsched_faults::FaultConfig::none().with_trace(trace)),
        );
    }
}
