//! Simulation configuration (the paper's Table 1 defaults).

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use gridsched_checkpoint::{CheckpointConfig, CheckpointPolicy};
use gridsched_core::{ControlConfig, EvalMode, ReplicaThrottle, StrategyKind};
use gridsched_des::config::{cadence, positive, require, ConfigError};
use gridsched_faults::{FaultConfig, FaultTrace};
use gridsched_storage::EvictionPolicy;
use gridsched_topology::{TiersConfig, Topology};
use gridsched_workload::Workload;

use crate::replication::ReplicationConfig;
use crate::speeds::SpeedModel;

/// Everything one simulation run needs.
///
/// Construct with [`SimConfig::paper`] (Table 1 defaults: capacity 6,000
/// files, 1 worker per site, 10 sites, 25 MB files — the file size lives on
/// the workload) and adjust with the `with_*` methods.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// The Bag-of-Tasks job to run.
    pub workload: Arc<Workload>,
    /// Which scheduling algorithm drives the run.
    pub strategy: StrategyKind,
    /// Number of sites actually used ("Only a subset of 90 sites are used
    /// in each experiment" — the first `sites` of the topology).
    pub sites: usize,
    /// Workers per site.
    pub workers_per_site: usize,
    /// Data-server storage capacity, in files.
    pub capacity_files: usize,
    /// Replacement policy of the data servers.
    pub policy: EvictionPolicy,
    /// Topology generator configuration (the topology seed is
    /// `topology.seed`, independent of [`SimConfig::seed`]).
    pub topology: TiersConfig,
    /// Master seed for worker speeds and scheduler randomization.
    pub seed: u64,
    /// Worker speed model.
    pub speeds: SpeedModel,
    /// Optional proactive data-replication extension (ablation; off by
    /// default — the paper treats it as orthogonal).
    pub replication: Option<ReplicationConfig>,
    /// Overrides `ChooseTask(n)` for worker-centric strategies (ablation;
    /// `None` keeps the strategy's own n — 1, or 2 for the `.2` variants).
    pub choose_n_override: Option<usize>,
    /// Fault injection: worker/server churn processes and scripted fault
    /// traces. `None` (or an inert config) reproduces the fault-free
    /// engine byte for byte.
    pub faults: Option<FaultConfig>,
    /// Checkpoint/restart: periodic checkpoint images so a crashed task
    /// resumes from its latest surviving checkpoint instead of restarting.
    /// `None` (or a `CheckpointPolicy::None` config) reproduces the
    /// checkpoint-free engine byte for byte.
    pub checkpointing: Option<CheckpointConfig>,
    /// Bounds on storage affinity's speculative replica fan-out (per-task
    /// cap, per-site in-flight budget). The default —
    /// [`ReplicaThrottle::none`] — reproduces the unthrottled scheduler
    /// byte for byte; only meaningful for
    /// [`StrategyKind::StorageAffinity`].
    pub replica_throttle: ReplicaThrottle,
    /// Closed-loop controllers (adaptive throttle, churn-aware placement,
    /// self-tuning Young–Daly). The default — [`ControlConfig::none`] —
    /// disables every loop and reproduces the open-loop engine byte for
    /// byte (property-tested in `tests/scheduler_equivalence.rs`).
    pub control: ControlConfig,
    /// Transfer guard: arms a timeout on every batch input fetch, sized as
    /// this multiple of the transfer's expected fair-share duration
    /// (`latency + bytes / fair-share rate` at flow start). `None` — the
    /// default — disables the guard entirely and reproduces the unguarded
    /// engine byte for byte.
    pub transfer_timeout_mult: Option<f64>,
    /// Transfer guard: retry attempts per fetch before the task is
    /// requeued (only read when [`SimConfig::transfer_timeout_mult`] is
    /// set). Attempt k + 1 starts after an exponentially backed-off,
    /// jittered delay and — unless [`SimConfig::transfer_naive_retry`] —
    /// may fail over to another replica of the file and resumes from the
    /// bytes already delivered.
    pub transfer_retries: u32,
    /// Transfer guard: base of the exponential retry backoff, seconds
    /// (attempt k waits `backoff × 2^(k-1) × jitter`, jitter uniform in
    /// `[0.5, 1.5)`).
    pub retry_backoff_s: f64,
    /// Transfer guard ablation: naive restart-from-zero retries — no
    /// failover (always re-fetch from the origin server) and no resume
    /// (delivered bytes are discarded and re-sent). The baseline the
    /// `ablation_netfaults` bench beats.
    pub transfer_naive_retry: bool,
    /// How schedulers evaluate their per-decision scans. All modes yield
    /// byte-identical simulations (property-tested); they differ only in
    /// wall-clock cost. Defaults to [`EvalMode::Incremental`]; an
    /// implementation detail, deliberately excluded from
    /// [`ConfigSummary`] so reports from different modes compare equal.
    pub eval_mode: EvalMode,
    /// Chrome Trace Event Format output path (`--trace-out`): per-task
    /// lifecycle spans and fault/outage windows, loadable in Perfetto.
    /// `None` disables span export. Telemetry is provably inert — the
    /// [`MetricsReport`](crate::MetricsReport) is byte-identical with it
    /// on or off (property-tested) — and, like `eval_mode`, excluded from
    /// [`ConfigSummary`].
    pub trace_out: Option<String>,
    /// JSONL metrics output path (`--metrics-out`): one line per named
    /// instrument, then one per probe sample. `None` disables.
    pub metrics_out: Option<String>,
    /// Sim-time probe sampling interval in seconds (`--probe-interval`):
    /// per-site queue depth / worker-state / link-occupancy time series,
    /// sampled between dispatched events (never *as* an event). At least
    /// [`MIN_CADENCE_S`](gridsched_des::config::MIN_CADENCE_S). `None`
    /// disables probing.
    pub probe_interval_s: Option<f64>,
    /// Determinism-digest output path (`--digest-out`): windowed rolling
    /// hashes of the dispatched event stream as JSONL, bisectable with
    /// `gridsched diff-digests`. Folded between events in the run loop
    /// (never *as* an event), so — like the rest of telemetry — provably
    /// inert and excluded from [`ConfigSummary`]. `None` disables.
    pub digest_out: Option<String>,
    /// Sim-time window width of the digest stream, seconds
    /// (`--digest-window`; default one sim hour). Only read when
    /// [`SimConfig::digest_out`] is set.
    pub digest_window_s: f64,
    /// Serve `/metrics` (Prometheus text format over the instrument
    /// registry) and `/healthz` from a background thread during the run
    /// (`--serve-metrics 127.0.0.1:9090`). `None` disables.
    pub serve_metrics: Option<String>,
    /// Seconds of wall time to keep serving after the run finishes
    /// (`--serve-linger`; lets scrapers collect the final snapshot).
    pub serve_linger_s: f64,
}

/// Serializable summary of a configuration (embedded in reports).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ConfigSummary {
    /// Algorithm label (paper's naming, e.g. `rest.2`).
    pub strategy: String,
    /// Number of sites used.
    pub sites: usize,
    /// Workers per site.
    pub workers_per_site: usize,
    /// Capacity in files.
    pub capacity_files: usize,
    /// Replacement policy.
    pub policy: String,
    /// File size in MB.
    pub file_size_mb: f64,
    /// Number of tasks.
    pub tasks: usize,
    /// Topology seed.
    pub topology_seed: u64,
    /// Master seed.
    pub seed: u64,
    /// Fault environment (`"none"` when fault injection is off or inert).
    pub faults: String,
    /// Checkpoint environment (`"none"` when checkpointing is off).
    pub checkpointing: String,
    /// Replica throttle (`"none"` when unbounded).
    pub replica_throttle: String,
    /// Enabled control loops (`"none"` when every controller is off).
    pub control: String,
    /// Transfer guard (`"none"` when no timeout is armed). Defaults to
    /// `"none"` when absent so reports written before the guard existed
    /// still deserialize.
    #[serde(default = "default_transfer_guard")]
    pub transfer_guard: String,
}

fn default_transfer_guard() -> String {
    "none".to_string()
}

impl SimConfig {
    /// Table 1 defaults: 10 sites, 1 worker/site, 6,000-file capacity, LRU,
    /// paper topology (seed 0), paper speed model.
    #[must_use]
    pub fn paper(workload: Arc<Workload>, strategy: StrategyKind) -> Self {
        SimConfig {
            workload,
            strategy,
            sites: 10,
            workers_per_site: 1,
            capacity_files: 6000,
            policy: EvictionPolicy::Lru,
            topology: TiersConfig::paper(0),
            seed: 0,
            speeds: SpeedModel::paper(),
            replication: None,
            choose_n_override: None,
            faults: None,
            checkpointing: None,
            replica_throttle: ReplicaThrottle::none(),
            control: ControlConfig::none(),
            transfer_timeout_mult: None,
            transfer_retries: 0,
            retry_backoff_s: 60.0,
            transfer_naive_retry: false,
            eval_mode: EvalMode::default(),
            trace_out: None,
            metrics_out: None,
            probe_interval_s: None,
            digest_out: None,
            digest_window_s: 3600.0,
            serve_metrics: None,
            serve_linger_s: 0.0,
        }
    }

    /// Sets the number of sites used (Figure 7 sweeps 10–26).
    #[must_use]
    pub fn with_sites(mut self, sites: usize) -> Self {
        self.sites = sites;
        self
    }

    /// Sets workers per site (Figure 6 sweeps 2–10).
    #[must_use]
    pub fn with_workers_per_site(mut self, workers: usize) -> Self {
        self.workers_per_site = workers;
        self
    }

    /// Sets the data-server capacity (Figure 4 sweeps 3,000–30,000).
    #[must_use]
    pub fn with_capacity(mut self, files: usize) -> Self {
        self.capacity_files = files;
        self
    }

    /// Sets the replacement policy.
    #[must_use]
    pub fn with_policy(mut self, policy: EvictionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the topology seed (the paper averages seeds 0–4).
    #[must_use]
    pub fn with_topology_seed(mut self, seed: u64) -> Self {
        self.topology.seed = seed;
        self
    }

    /// Sets the master seed (worker speeds, scheduler randomization).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the worker speed model.
    #[must_use]
    pub fn with_speeds(mut self, speeds: SpeedModel) -> Self {
        self.speeds = speeds;
        self
    }

    /// Enables the proactive data-replication extension.
    #[must_use]
    pub fn with_replication(mut self, replication: ReplicationConfig) -> Self {
        self.replication = Some(replication);
        self
    }

    /// Overrides `ChooseTask(n)` for worker-centric strategies (ablation).
    #[must_use]
    pub fn with_choose_n(mut self, n: usize) -> Self {
        self.choose_n_override = Some(n);
        self
    }

    /// Swaps the scheduling strategy, keeping everything else.
    #[must_use]
    pub fn with_strategy(mut self, strategy: StrategyKind) -> Self {
        self.strategy = strategy;
        self
    }

    /// Enables fault injection (worker/server churn, scripted traces).
    #[must_use]
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Enables checkpoint/restart (periodic images, resume after crashes).
    #[must_use]
    pub fn with_checkpointing(mut self, checkpointing: CheckpointConfig) -> Self {
        self.checkpointing = Some(checkpointing);
        self
    }

    /// Bounds storage affinity's replica fan-out (see [`ReplicaThrottle`]).
    #[must_use]
    pub fn with_replica_throttle(mut self, throttle: ReplicaThrottle) -> Self {
        self.replica_throttle = throttle;
        self
    }

    /// Caps concurrent replica executions per task.
    #[must_use]
    pub fn with_replica_cap(mut self, cap: u32) -> Self {
        self.replica_throttle = self.replica_throttle.with_replica_cap(cap);
        self
    }

    /// Caps concurrent replica executions launched per site.
    #[must_use]
    pub fn with_site_replica_budget(mut self, budget: u32) -> Self {
        self.replica_throttle = self.replica_throttle.with_site_budget(budget);
        self
    }

    /// Enables closed-loop controllers (see [`ControlConfig`]).
    #[must_use]
    pub fn with_control(mut self, control: ControlConfig) -> Self {
        self.control = control;
        self
    }

    /// Arms the transfer guard: every batch fetch times out after `mult ×`
    /// its expected fair-share duration.
    #[must_use]
    pub fn with_transfer_timeout(mut self, mult: f64) -> Self {
        self.transfer_timeout_mult = Some(mult);
        self
    }

    /// Sets the retry budget per fetch before the task is requeued.
    #[must_use]
    pub fn with_transfer_retries(mut self, retries: u32) -> Self {
        self.transfer_retries = retries;
        self
    }

    /// Sets the exponential retry backoff base, seconds.
    #[must_use]
    pub fn with_retry_backoff(mut self, backoff_s: f64) -> Self {
        self.retry_backoff_s = backoff_s;
        self
    }

    /// Selects naive restart-from-zero retries (ablation baseline: no
    /// failover, no resume).
    #[must_use]
    pub fn with_naive_retry(mut self) -> Self {
        self.transfer_naive_retry = true;
        self
    }

    /// Selects the scheduler evaluation path (validation/benchmarking; the
    /// simulation output is identical across modes).
    #[must_use]
    pub fn with_eval_mode(mut self, eval_mode: EvalMode) -> Self {
        self.eval_mode = eval_mode;
        self
    }

    /// Writes per-task lifecycle spans as Chrome Trace Event Format JSON
    /// (open with Perfetto or `chrome://tracing`).
    #[must_use]
    pub fn with_trace_out(mut self, path: impl Into<String>) -> Self {
        self.trace_out = Some(path.into());
        self
    }

    /// Writes instrument snapshots and probe samples as JSONL.
    #[must_use]
    pub fn with_metrics_out(mut self, path: impl Into<String>) -> Self {
        self.metrics_out = Some(path.into());
        self
    }

    /// Samples per-site occupancy time series every `interval_s` sim
    /// seconds.
    #[must_use]
    pub fn with_probe_interval(mut self, interval_s: f64) -> Self {
        self.probe_interval_s = Some(interval_s);
        self
    }

    /// Writes windowed determinism digests of the event stream as JSONL.
    #[must_use]
    pub fn with_digest_out(mut self, path: impl Into<String>) -> Self {
        self.digest_out = Some(path.into());
        self
    }

    /// Sets the digest window width (sim seconds).
    #[must_use]
    pub fn with_digest_window(mut self, window_s: f64) -> Self {
        self.digest_window_s = window_s;
        self
    }

    /// Serves `/metrics` + `/healthz` at `addr` during the run.
    #[must_use]
    pub fn with_serve_metrics(mut self, addr: impl Into<String>) -> Self {
        self.serve_metrics = Some(addr.into());
        self
    }

    /// Keeps serving for `linger_s` wall seconds after the run finishes.
    #[must_use]
    pub fn with_serve_linger(mut self, linger_s: f64) -> Self {
        self.serve_linger_s = linger_s;
        self
    }

    /// Checks every configuration rule, each stated once: the range of
    /// each setting (here and in the sub-configs' own `validate`) and each
    /// rule that spans several settings. [`GridSim::new`] runs it and
    /// panics on an error; a front end runs it first to report the error
    /// instead. The one rule it cannot check needs the generated topology:
    /// see [`SimConfig::validate_links`].
    ///
    /// # Errors
    ///
    /// The first rule broken, naming the offending field by its path
    /// (`faults.worker_mtbf_s`).
    ///
    /// [`GridSim::new`]: crate::GridSim::new
    pub fn validate(&self) -> Result<(), ConfigError> {
        let site_count = self.topology.site_count();
        require(self.sites >= 1, "sites", "need at least one site")?;
        require(
            self.sites <= site_count,
            "sites",
            format_args!(
                "{} sites requested but the topology only has {site_count} sites",
                self.sites
            ),
        )?;
        require(
            self.workers_per_site >= 1,
            "workers_per_site",
            "need at least one worker per site",
        )?;
        require(
            self.capacity_files >= 1,
            "capacity_files",
            "capacity must be positive",
        )?;
        let strategy = self.strategy;
        if let Some(n) = self.choose_n_override {
            require(n >= 1, "choose_n_override", "ChooseTask(n) needs n >= 1")?;
            require(
                strategy.metric().is_some(),
                "choose_n_override",
                format_args!(
                    "ChooseTask(n) only applies to worker-centric strategies \
                     (configured strategy: {strategy})"
                ),
            )?;
        }
        let throttle = self.replica_throttle;
        throttle
            .validate()
            .map_err(|e| e.within("replica_throttle"))?;
        let storage_affinity = strategy == StrategyKind::StorageAffinity;
        require(
            storage_affinity || !throttle.is_active(),
            if throttle.replica_cap.is_some() {
                "replica_throttle.replica_cap"
            } else {
                "replica_throttle.site_budget"
            },
            format_args!(
                "the replica throttle only applies to storage-affinity \
                 (configured strategy: {strategy})"
            ),
        )?;
        self.control.validate().map_err(|e| e.within("control"))?;
        require(
            storage_affinity || !self.control.adaptive_throttle,
            "control.adaptive_throttle",
            format_args!(
                "the adaptive replica throttle only applies to storage-affinity \
                 (configured strategy: {strategy})"
            ),
        )?;
        if let Some(mult) = self.transfer_timeout_mult {
            // A multiple at or below the expected duration would time out
            // healthy transfers.
            require(
                mult > 1.0 && mult.is_finite(),
                "transfer_timeout_mult",
                "transfer timeout multiple must be > 1",
            )?;
        }
        positive("retry_backoff_s", self.retry_backoff_s, "retry backoff")?;
        if let Some(dt) = self.probe_interval_s {
            positive("probe_interval_s", dt, "probe interval")?;
            cadence("probe_interval_s", dt, "probe interval")?;
        }
        positive("digest_window_s", self.digest_window_s, "digest window")?;
        require(
            self.serve_linger_s >= 0.0 && self.serve_linger_s.is_finite(),
            "serve_linger_s",
            "serve linger must be non-negative and finite",
        )?;
        if let Some(faults) = &self.faults {
            faults.validate().map_err(|e| e.within("faults"))?;
            if let Some(trace) = &faults.trace {
                trace
                    .validate(self.sites, self.workers_per_site)
                    .map_err(|message| ConfigError {
                        field: "faults.trace".to_string(),
                        message,
                    })?;
            }
        }
        if let Some(c) = &self.checkpointing {
            c.validate().map_err(|e| e.within("checkpointing"))?;
        }
        let policy = self.checkpointing.map(|c| c.policy);
        let worker_mtbf = self.faults.as_ref().and_then(|f| f.worker_mtbf_s);
        require(
            policy != Some(CheckpointPolicy::YoungDaly) || worker_mtbf.is_some(),
            "checkpointing.policy",
            "young-daly checkpointing needs a worker MTBF (fault model)",
        )?;
        // The adaptive policy and its control loop come as a pair: the
        // policy alone never sets an interval, and the loop alone has
        // no interval to re-derive.
        let adaptive_policy = policy == Some(CheckpointPolicy::YoungDalyAdaptive);
        require(
            !adaptive_policy || self.control.adaptive_checkpoint,
            "checkpointing.policy",
            "young-daly-adaptive checkpointing needs the adaptive-checkpoint control loop",
        )?;
        require(
            adaptive_policy || !self.control.adaptive_checkpoint,
            "control.adaptive_checkpoint",
            "the adaptive-checkpoint control loop needs young-daly-adaptive checkpointing",
        )
    }

    /// Checks the fault trace's link indices against `topology`, the
    /// topology generated from [`SimConfig::topology`] (link indices are
    /// scoped to a generated topology, so [`SimConfig::validate`] cannot
    /// see them).
    ///
    /// # Errors
    ///
    /// A `faults.trace` error when the trace references a link `topology`
    /// lacks.
    pub fn validate_links(&self, topology: &Topology) -> Result<(), ConfigError> {
        let trace = self.faults.as_ref().and_then(|f| f.trace.as_ref());
        let Some(link) = trace.and_then(FaultTrace::max_link) else {
            return Ok(());
        };
        let links = topology.graph.edge_count();
        require(
            link < links,
            "faults.trace",
            format_args!(
                "fault trace references link {link} but topology seed {} has only \
                 {links} links",
                topology.seed
            ),
        )
    }

    /// True when any telemetry output is requested, so the engine enables
    /// its instruments; otherwise every record is a single dead branch.
    /// The determinism digest is deliberately *not* included: it hashes
    /// the event stream directly and needs no instruments.
    #[must_use]
    pub fn telemetry_requested(&self) -> bool {
        self.trace_out.is_some()
            || self.metrics_out.is_some()
            || self.probe_interval_s.is_some()
            || self.serve_metrics.is_some()
    }

    /// Applies the per-replicate `.seed<N>` suffix to every configured
    /// output path — the one shared helper behind `--trace-out`,
    /// `--metrics-out` and `--digest-out` when a run fans out over several
    /// topology seeds (each replicate must write its own files).
    pub fn suffix_outputs_for_seed(&mut self, seed: u64) {
        for path in [
            self.trace_out.as_mut(),
            self.metrics_out.as_mut(),
            self.digest_out.as_mut(),
        ]
        .into_iter()
        .flatten()
        {
            *path = seeded_output_path(path, seed);
        }
    }

    /// The serializable summary embedded in reports.
    #[must_use]
    pub fn summary(&self) -> ConfigSummary {
        ConfigSummary {
            strategy: self.strategy.to_string(),
            sites: self.sites,
            workers_per_site: self.workers_per_site,
            capacity_files: self.capacity_files,
            policy: self.policy.to_string(),
            file_size_mb: self.workload.file_size_bytes / 1e6,
            tasks: self.workload.task_count(),
            topology_seed: self.topology.seed,
            seed: self.seed,
            faults: self
                .faults
                .as_ref()
                .map_or_else(|| "none".to_string(), FaultConfig::summary),
            checkpointing: self
                .checkpointing
                .as_ref()
                .map_or_else(|| "none".to_string(), CheckpointConfig::summary),
            replica_throttle: self.replica_throttle.summary(),
            control: self.control.summary(),
            transfer_guard: self.transfer_guard_summary(),
        }
    }

    /// Human-readable transfer-guard line (`"none"` when no timeout set).
    #[must_use]
    pub fn transfer_guard_summary(&self) -> String {
        match self.transfer_timeout_mult {
            None => default_transfer_guard(),
            Some(mult) => {
                let mut s = format!(
                    "timeout={mult:.1}x retries={} backoff={:.0}s",
                    self.transfer_retries, self.retry_backoff_s
                );
                if self.transfer_naive_retry {
                    s.push_str(" naive");
                }
                s
            }
        }
    }
}

/// The `.seed<N>` suffix convention for per-replicate output files:
/// `runs/trace.json` → `runs/trace.json.seed3`.
#[must_use]
pub fn seeded_output_path(path: &str, seed: u64) -> String {
    format!("{path}.seed{seed}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsched_des::config::MIN_CADENCE_S;
    use gridsched_workload::coadd::CoaddConfig;

    fn wl() -> Arc<Workload> {
        Arc::new(CoaddConfig::small(0).generate())
    }

    /// Panics with the text of the first rule `config` breaks, as
    /// `GridSim::new` does.
    fn assert_valid(config: &SimConfig) {
        if let Err(e) = config.validate() {
            panic!("{e}");
        }
    }

    #[test]
    fn paper_defaults_match_table1() {
        let c = SimConfig::paper(wl(), StrategyKind::Rest);
        assert_eq!(c.sites, 10);
        assert_eq!(c.workers_per_site, 1);
        assert_eq!(c.capacity_files, 6000);
        assert_eq!(c.policy, EvictionPolicy::Lru);
    }

    #[test]
    fn builder_methods() {
        let c = SimConfig::paper(wl(), StrategyKind::Overlap)
            .with_sites(26)
            .with_workers_per_site(6)
            .with_capacity(3000)
            .with_topology_seed(3)
            .with_seed(9);
        assert_eq!(c.sites, 26);
        assert_eq!(c.workers_per_site, 6);
        assert_eq!(c.capacity_files, 3000);
        assert_eq!(c.topology.seed, 3);
        assert_eq!(c.seed, 9);
        let s = c.summary();
        assert_eq!(s.strategy, "overlap");
        assert_eq!(s.tasks, 200);
        assert!((s.file_size_mb - 25.0).abs() < 1e-9);
    }

    #[test]
    fn throttle_builders_and_summary() {
        let c = SimConfig::paper(wl(), StrategyKind::StorageAffinity);
        assert!(!c.replica_throttle.is_active());
        assert_eq!(c.summary().replica_throttle, "none");
        let c = c.with_replica_cap(1).with_site_replica_budget(32);
        assert_eq!(c.replica_throttle.replica_cap, Some(1));
        assert_eq!(c.replica_throttle.site_budget, Some(32));
        assert_eq!(c.summary().replica_throttle, "cap=1 site-budget=32");
    }

    #[test]
    fn control_builder_and_summary() {
        let c = SimConfig::paper(wl(), StrategyKind::StorageAffinity);
        assert!(c.control.is_inert());
        assert_eq!(c.summary().control, "none");
        // Explicitly disabling every loop is the same as the default.
        let explicit = c.clone().with_control(ControlConfig::none());
        assert_eq!(explicit.summary(), c.summary());
        let c = c.with_control(ControlConfig::none().with_adaptive_throttle());
        assert_eq!(c.summary().control, "throttle tick=60s");
    }

    #[test]
    fn transfer_guard_builders_and_summary() {
        let c = SimConfig::paper(wl(), StrategyKind::Rest);
        assert!(c.transfer_timeout_mult.is_none());
        // The serde fallback for pre-guard reports matches the inactive
        // summary exactly.
        assert_eq!(c.summary().transfer_guard, default_transfer_guard());
        assert_eq!(c.summary().transfer_guard, "none");
        let c = c
            .with_transfer_timeout(4.0)
            .with_transfer_retries(3)
            .with_retry_backoff(30.0);
        assert_eq!(
            c.summary().transfer_guard,
            "timeout=4.0x retries=3 backoff=30s"
        );
        let naive = c.clone().with_naive_retry();
        assert_eq!(
            naive.summary().transfer_guard,
            "timeout=4.0x retries=3 backoff=30s naive"
        );
    }

    #[test]
    #[should_panic(expected = "transfer timeout multiple must be > 1")]
    fn timeout_mult_at_one_panics() {
        assert_valid(&SimConfig::paper(wl(), StrategyKind::Rest).with_transfer_timeout(1.0));
    }

    #[test]
    #[should_panic(expected = "retry backoff must be positive")]
    fn zero_retry_backoff_panics() {
        assert_valid(&SimConfig::paper(wl(), StrategyKind::Rest).with_retry_backoff(0.0));
    }

    #[test]
    #[should_panic(expected = "topology only has")]
    fn too_many_sites_panics() {
        assert_valid(&SimConfig::paper(wl(), StrategyKind::Rest).with_sites(91));
    }

    #[test]
    fn telemetry_builders() {
        let c = SimConfig::paper(wl(), StrategyKind::Rest);
        assert!(!c.telemetry_requested());
        let c = c
            .with_trace_out("/tmp/trace.json")
            .with_metrics_out("/tmp/metrics.jsonl")
            .with_probe_interval(5.0);
        assert!(c.telemetry_requested());
        assert_eq!(c.trace_out.as_deref(), Some("/tmp/trace.json"));
        assert_eq!(c.metrics_out.as_deref(), Some("/tmp/metrics.jsonl"));
        assert_eq!(c.probe_interval_s, Some(5.0));
        // Deliberately excluded from the summary, like eval_mode: telemetry
        // must never change what reports compare equal to.
        let plain = SimConfig::paper(wl(), StrategyKind::Rest);
        assert_eq!(c.summary(), plain.summary());
    }

    #[test]
    #[should_panic(expected = "probe interval must be positive")]
    fn zero_probe_interval_panics() {
        assert_valid(&SimConfig::paper(wl(), StrategyKind::Rest).with_probe_interval(0.0));
    }

    /// A positive period below the 1 s floor is rejected too: the run
    /// loop would fire it once per period between two events.
    #[test]
    fn sampling_periods_have_a_floor() {
        let probed = SimConfig::paper(wl(), StrategyKind::Rest);
        let err = probed
            .clone()
            .with_probe_interval(1e-300)
            .validate()
            .unwrap_err();
        assert_eq!(err.field, "probe_interval_s");
        assert!(err.message.contains("at least 1 s"), "{err}");
        assert_valid(&probed.clone().with_probe_interval(MIN_CADENCE_S));

        let control = ControlConfig::none().with_churn_placement();
        let ticked = probed.with_control(control.with_tick_s(0.5));
        assert_eq!(ticked.validate().unwrap_err().field, "control.tick_s");
        assert_valid(&ticked.with_control(control.with_tick_s(MIN_CADENCE_S)));
    }

    #[test]
    fn digest_and_exposition_builders_stay_out_of_summary() {
        let c = SimConfig::paper(wl(), StrategyKind::Rest);
        assert!(!c.telemetry_requested());
        let c = c
            .with_digest_out("/tmp/run.digest.jsonl")
            .with_digest_window(600.0)
            .with_serve_metrics("127.0.0.1:9090")
            .with_serve_linger(2.0);
        // The digest alone needs no instruments, but serving does.
        assert!(c.telemetry_requested());
        assert_eq!(c.digest_out.as_deref(), Some("/tmp/run.digest.jsonl"));
        assert_eq!(c.digest_window_s, 600.0);
        assert_eq!(c.serve_metrics.as_deref(), Some("127.0.0.1:9090"));
        assert_eq!(c.serve_linger_s, 2.0);
        let plain = SimConfig::paper(wl(), StrategyKind::Rest);
        assert_eq!(c.summary(), plain.summary());
        let digest_only = SimConfig::paper(wl(), StrategyKind::Rest).with_digest_out("/tmp/d");
        assert!(!digest_only.telemetry_requested());
    }

    #[test]
    fn seed_suffix_helper_applies_to_every_output() {
        assert_eq!(seeded_output_path("runs/t.json", 3), "runs/t.json.seed3");
        let mut c = SimConfig::paper(wl(), StrategyKind::Rest)
            .with_trace_out("t.json")
            .with_metrics_out("m.jsonl")
            .with_digest_out("d.jsonl");
        c.suffix_outputs_for_seed(4);
        assert_eq!(c.trace_out.as_deref(), Some("t.json.seed4"));
        assert_eq!(c.metrics_out.as_deref(), Some("m.jsonl.seed4"));
        assert_eq!(c.digest_out.as_deref(), Some("d.jsonl.seed4"));
    }

    #[test]
    #[should_panic(expected = "digest window must be positive")]
    fn zero_digest_window_panics() {
        assert_valid(&SimConfig::paper(wl(), StrategyKind::Rest).with_digest_window(0.0));
    }

    /// Settings written straight into the public fields, never through a
    /// builder, are checked all the same. A zero probe interval or control
    /// tick would make the run loop's samplers fire forever at one instant.
    #[test]
    fn validate_checks_fields_set_directly() {
        let mut probed = SimConfig::paper(wl(), StrategyKind::Rest).with_metrics_out("m.jsonl");
        probed.probe_interval_s = Some(0.0);
        assert!(probed.telemetry_requested());
        assert_eq!(probed.validate().unwrap_err().field, "probe_interval_s");

        let mut ticked = SimConfig::paper(wl(), StrategyKind::Rest)
            .with_control(ControlConfig::none().with_churn_placement());
        ticked.control.tick_s = 0.0;
        assert_eq!(ticked.validate().unwrap_err().field, "control.tick_s");

        let mut faults = FaultConfig::none().with_worker_faults(3600.0, 600.0);
        faults.worker_mtbf_s = Some(f64::NAN);
        let err = SimConfig::paper(wl(), StrategyKind::Rest)
            .with_faults(faults)
            .validate()
            .unwrap_err();
        assert_eq!(err.field, "faults.worker_mtbf_s");
        assert!(
            err.message.contains("worker MTBF must be positive"),
            "{err}"
        );
    }

    #[test]
    fn choose_n_needs_a_worker_centric_strategy() {
        let rest = SimConfig::paper(wl(), StrategyKind::Rest).with_choose_n(3);
        assert_eq!(rest.validate(), Ok(()));
        for strategy in [
            StrategyKind::StorageAffinity,
            StrategyKind::Workqueue,
            StrategyKind::Sufferage,
        ] {
            let err = rest.clone().with_strategy(strategy).validate().unwrap_err();
            assert_eq!(err.field, "choose_n_override");
            assert!(
                err.message.contains("only applies to worker-centric"),
                "{err}"
            );
        }
    }

    #[test]
    fn paper_defaults_and_sub_config_errors_name_their_path() {
        assert_eq!(
            SimConfig::paper(wl(), StrategyKind::Rest).validate(),
            Ok(())
        );
        let err = SimConfig::paper(wl(), StrategyKind::StorageAffinity)
            .with_site_replica_budget(0)
            .validate()
            .unwrap_err();
        assert_eq!(err.field, "replica_throttle.site_budget");
        assert_eq!(
            err.to_string(),
            "replica_throttle.site_budget: site replica budget must be >= 1"
        );
        let err = SimConfig::paper(wl(), StrategyKind::Rest)
            .with_checkpointing(CheckpointConfig::fixed(600.0).with_size_bytes(-1.0))
            .validate()
            .unwrap_err();
        assert_eq!(err.field, "checkpointing.size_bytes");
        // The adaptive checkpoint loop alone has no interval to re-derive.
        let err = SimConfig::paper(wl(), StrategyKind::Rest)
            .with_control(ControlConfig::none().with_adaptive_checkpoint())
            .validate()
            .unwrap_err();
        assert_eq!(err.field, "control.adaptive_checkpoint");
    }
}
