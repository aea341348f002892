//! `gridsched` — command-line front end to the simulator.
//!
//! ```text
//! gridsched simulate [--strategy rest.2] [--sites 10] [--workers 1]
//!                    [--capacity 6000] [--policy lru] [--tasks 6000]
//!                    [--file-size-mb 25] [--seed 0] [--topology-seeds 0,1,2,3,4]
//!                    [--choose-n N] [--replication-threshold T]
//!                    [--replica-cap N] [--site-replica-budget N]
//!                    [--mtbf SECS] [--mttr SECS] [--mttr-shape K]
//!                    [--server-mtbf SECS] [--server-mttr SECS] [--server-mttr-shape K]
//!                    [--fault-trace FILE]
//!                    [--fault-burst-rate SECS] [--fault-burst-size N]
//!                    [--link-mtbf SECS] [--link-mttr SECS]
//!                    [--link-degrade-factor F]
//!                    [--transfer-timeout MULT] [--transfer-retries N]
//!                    [--retry-backoff SECS]
//!                    [--checkpoint-policy none|fixed|young-daly|young-daly-adaptive]
//!                    [--checkpoint-interval SECS] [--checkpoint-size MB]
//!                    [--adaptive throttle,placement,checkpoint|all]
//!                    [--control-tick SECS]
//!                    [--trace FILE] [--csv]
//!                    [--trace-out FILE] [--metrics-out FILE]
//!                    [--probe-interval SECS]
//!                    [--digest-out FILE] [--digest-window SECS]
//!                    [--serve-metrics ADDR] [--serve-linger SECS]
//! gridsched analyze --trace run.json [--blame-out blame.json] [--top K]
//! gridsched diff-digests a.jsonl b.jsonl
//! gridsched workload [--tasks 6000] [--seed 0] [--out FILE]
//! gridsched topology [--seed 0] [--sites 90] [--dot FILE]
//! gridsched strategies
//! ```
//!
//! `simulate` runs one experiment point (averaged over the topology
//! seeds), `analyze` runs post-hoc forensics over a recorded trace
//! (per-task blame decomposition, critical path, top-k bottlenecks),
//! `diff-digests` bisects two determinism-digest streams to the first
//! divergent window and event ordinal, `workload` generates and
//! optionally saves a Coadd trace, `topology` summarises a generated
//! network (optionally exporting Graphviz DOT), `strategies` lists the
//! available algorithms.

use std::collections::HashMap;
use std::process::ExitCode;
use std::sync::Arc;

use gridsched::prelude::*;
use gridsched::topology::dot::to_dot;
use gridsched::workload::trace;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let opts = match parse_flags(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Only diff-digests takes positional operands; everywhere else a bare
    // word is a typo worth rejecting up front.
    if command != "diff-digests" && !opts.positionals.is_empty() {
        eprintln!(
            "error: unexpected argument `{}`\n{USAGE}",
            opts.positionals[0]
        );
        return ExitCode::from(2);
    }
    let result = match command.as_str() {
        "simulate" => cmd_simulate(&opts),
        "analyze" => cmd_analyze(&opts),
        "diff-digests" => match cmd_diff_digests(&opts) {
            Ok(code) => return code,
            Err(e) => Err(e),
        },
        "workload" => cmd_workload(&opts),
        "topology" => cmd_topology(&opts),
        "strategies" => {
            for s in [
                "storage-affinity",
                "overlap",
                "rest",
                "combined",
                "rest.2",
                "combined.2",
                "workqueue",
                "xsufferage",
            ] {
                println!("{s}");
            }
            Ok(())
        }
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

const USAGE: &str = "\
usage:
  gridsched simulate [--strategy S] [--sites N] [--workers N] [--capacity N]
                     [--policy lru|fifo|lfu] [--tasks N] [--file-size-mb X]
                     [--seed N] [--topology-seeds a,b,c] [--choose-n N]
                     [--replication-threshold N] [--trace FILE] [--csv]
                     [--replica-cap N] [--site-replica-budget N] (storage-affinity
                       replica throttle; default unbounded)
                     [--eval-mode incremental|naive] (scheduler internals;
                       identical output, different per-decision cost)
                     [--mtbf SECS] [--mttr SECS] (worker churn, default MTTR 600)
                     [--mttr-shape K] (Weibull repair shape; 1 = exponential)
                     [--server-mtbf SECS] [--server-mttr SECS] (default MTTR 900)
                     [--server-mttr-shape K] (Weibull repair shape; 1 = exponential)
                     [--fault-trace FILE] (scripted faults; see gridsched-faults)
                     [--fault-burst-rate SECS] (correlated site-scoped crash
                       bursts every Exp(SECS); requires --mtbf)
                     [--fault-burst-size N] (workers lost per burst, default 4)
                     [--link-mtbf SECS] [--link-mttr SECS] (per-link outage
                       process, default MTTR 900)
                     [--link-degrade-factor F] (fault windows degrade link
                       bandwidth to F in (0,1) instead of cutting the link)
                     [--transfer-timeout MULT] (transfer guard: time out a
                       batch fetch at MULT x its fair-share estimate, MULT > 1)
                     [--transfer-retries N] (retry budget per fetch before the
                       task is requeued, default 0)
                     [--retry-backoff SECS] (exponential backoff base,
                       default 60)
                     [--checkpoint-policy none|fixed|young-daly|young-daly-adaptive]
                     [--checkpoint-interval SECS] (fixed policy's interval)
                     [--checkpoint-size MB] (image size, default 25)
                     [--adaptive throttle,placement,checkpoint|all] (closed-loop
                       controllers tuned from the observed failure process;
                       young-daly-adaptive enables the checkpoint loop itself)
                     [--control-tick SECS] (controller tick period, default 60)
                     [--trace-out FILE] (Chrome Trace Event JSON of task
                       lifecycle spans; open in Perfetto / chrome://tracing)
                     [--metrics-out FILE] (JSONL instrument + probe stream)
                     [--probe-interval SECS] (per-site occupancy sampling)
                     [--digest-out FILE] (windowed determinism digests of the
                       event stream, JSONL; bisect with diff-digests)
                     [--digest-window SECS] (digest window, default 3600 sim s)
                     [--serve-metrics ADDR] (serve Prometheus /metrics and
                       /healthz at ADDR, e.g. 127.0.0.1:9090; single replicate)
                     [--serve-linger SECS] (keep serving after the run ends)
  gridsched analyze --trace run.json [--blame-out blame.json] [--top K]
                     (per-task blame decomposition, critical path, top-k
                      bottlenecks over a --trace-out recording)
  gridsched diff-digests a.jsonl b.jsonl
                     (first divergent window + event ordinal; exit 0 when
                      identical, 3 on divergence)
  gridsched workload [--tasks N] [--seed N] [--file-size-mb X] [--out FILE]
  gridsched topology [--seed N] [--sites N] [--dot FILE]
  gridsched strategies";

/// `--flag value` pairs, boolean flags (`--csv`) and positional operands
/// (`diff-digests a.jsonl b.jsonl`).
struct Opts {
    values: HashMap<String, String>,
    switches: Vec<String>,
    positionals: Vec<String>,
}

impl Opts {
    fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.values.get(key) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|e| format!("bad value for --{key}: {e}")),
        }
    }

    /// A count (`--tasks`, `topology --sites`): zero is rejected here as
    /// a usage error, before a generator that needs at least one runs.
    fn get_count<T>(&self, key: &str, default: T) -> Result<T, String>
    where
        T: std::str::FromStr + PartialEq + Default,
        T::Err: std::fmt::Display,
    {
        let n = self.get(key, default)?;
        if n == T::default() {
            return Err(format!("--{key} must be >= 1"));
        }
        Ok(n)
    }

    fn get_opt<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.values.get(key) {
            None => Ok(None),
            Some(raw) => raw
                .parse()
                .map(Some)
                .map_err(|e| format!("bad value for --{key}: {e}")),
        }
    }

    fn has(&self, key: &str) -> bool {
        self.switches.iter().any(|s| s == key)
    }
}

const SWITCHES: &[&str] = &["csv"];

fn parse_flags(args: &[String]) -> Result<Opts, String> {
    let mut values = HashMap::new();
    let mut switches = Vec::new();
    let mut positionals = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let Some(key) = arg.strip_prefix("--") else {
            positionals.push(arg.clone());
            continue;
        };
        if SWITCHES.contains(&key) {
            switches.push(key.to_string());
        } else {
            let value = iter
                .next()
                .ok_or_else(|| format!("--{key} needs a value"))?;
            values.insert(key.to_string(), value.clone());
        }
    }
    Ok(Opts {
        values,
        switches,
        positionals,
    })
}

fn parse_seed_list(raw: &str) -> Result<Vec<u64>, String> {
    let seeds: Result<Vec<u64>, _> = raw.split(',').map(|s| s.trim().parse()).collect();
    let seeds = seeds.map_err(|e| format!("bad seed list: {e}"))?;
    if seeds.is_empty() {
        return Err("empty seed list".into());
    }
    Ok(seeds)
}

fn load_or_generate_workload(opts: &Opts) -> Result<Arc<Workload>, String> {
    if let Some(path) = opts.values.get("trace") {
        let file = std::fs::File::open(path).map_err(|e| format!("open {path}: {e}"))?;
        let wl = trace::read_trace(std::io::BufReader::new(file))
            .map_err(|e| format!("parse {path}: {e}"))?;
        return Ok(Arc::new(wl));
    }
    Ok(Arc::new(coadd_config(opts, "workload-seed")?.generate()))
}

/// The Coadd generator config from `--tasks`, `--file-size-mb` and the
/// seed flag `seed_key`.
fn coadd_config(opts: &Opts, seed_key: &str) -> Result<CoaddConfig, String> {
    let mut cfg = CoaddConfig::paper_6000();
    cfg.tasks = opts.get_count("tasks", 6000u32)?;
    cfg.seed = opts.get(seed_key, 0u64)?;
    let cfg = cfg.with_file_size_mb(opts.get("file-size-mb", 25.0)?);
    // `Workload::new` asserts a positive, finite file size.
    if !(cfg.file_size_bytes > 0.0 && cfg.file_size_bytes.is_finite()) {
        return Err("--file-size-mb must be positive and finite".into());
    }
    Ok(cfg)
}

/// Flags that mean nothing without another: `(dependent, required)`.
/// Given alone they are rejected, not silently ignored.
const DEPENDENT_FLAGS: &[(&str, &str)] = &[
    ("mttr", "mtbf"),
    ("mttr-shape", "mtbf"),
    ("server-mttr", "server-mtbf"),
    ("server-mttr-shape", "server-mtbf"),
    ("fault-burst-rate", "mtbf"),
    ("fault-burst-size", "fault-burst-rate"),
    ("link-mttr", "link-mtbf"),
    ("link-degrade-factor", "link-mtbf"),
    ("transfer-retries", "transfer-timeout"),
    ("retry-backoff", "transfer-timeout"),
    ("digest-window", "digest-out"),
    ("serve-linger", "serve-metrics"),
];

/// The flag that sets each config field a [`ConfigError`] can name, so
/// the library's rules are reported in the CLI's terms.
const FIELD_FLAGS: &[(&str, &str)] = &[
    ("sites", "sites"),
    ("workers_per_site", "workers"),
    ("capacity_files", "capacity"),
    ("choose_n_override", "choose-n"),
    ("replica_throttle.replica_cap", "replica-cap"),
    ("replica_throttle.site_budget", "site-replica-budget"),
    ("transfer_timeout_mult", "transfer-timeout"),
    ("retry_backoff_s", "retry-backoff"),
    ("probe_interval_s", "probe-interval"),
    ("digest_window_s", "digest-window"),
    ("serve_linger_s", "serve-linger"),
    ("faults.worker_mtbf_s", "mtbf"),
    ("faults.worker_mttr_s", "mttr"),
    ("faults.worker_mttr_shape", "mttr-shape"),
    ("faults.server_mtbf_s", "server-mtbf"),
    ("faults.server_mttr_s", "server-mttr"),
    ("faults.server_mttr_shape", "server-mttr-shape"),
    ("faults.link_mtbf_s", "link-mtbf"),
    ("faults.link_mttr_s", "link-mttr"),
    ("faults.link_degrade_factor", "link-degrade-factor"),
    ("faults.burst_rate_s", "fault-burst-rate"),
    ("faults.burst_size", "fault-burst-size"),
    ("faults.trace", "fault-trace"),
    ("checkpointing.policy", "checkpoint-policy"),
    ("checkpointing.policy.interval_s", "checkpoint-interval"),
    ("checkpointing.size_bytes", "checkpoint-size"),
    ("control.adaptive_throttle", "adaptive"),
    ("control.adaptive_checkpoint", "adaptive"),
    ("control.tick_s", "control-tick"),
];

/// A library configuration error as a CLI error line naming the flag.
fn flag_error(e: ConfigError) -> String {
    match FIELD_FLAGS.iter().find(|(field, _)| *field == e.field) {
        Some((_, flag)) => format!("--{flag}: {}", e.message),
        None => e.to_string(),
    }
}

fn build_fault_config(opts: &Opts) -> Result<FaultConfig, String> {
    let mut faults = FaultConfig::none();
    if let Some(mtbf) = opts.get_opt("mtbf")? {
        faults = faults
            .with_worker_faults(mtbf, opts.get("mttr", 600.0)?)
            .with_worker_repair_shape(opts.get("mttr-shape", 1.0)?);
        if let Some(rate) = opts.get_opt("fault-burst-rate")? {
            faults = faults.with_worker_bursts(rate, opts.get("fault-burst-size", 4u32)?);
        }
    }
    if let Some(mtbf) = opts.get_opt("server-mtbf")? {
        faults = faults
            .with_server_faults(mtbf, opts.get("server-mttr", 900.0)?)
            .with_server_repair_shape(opts.get("server-mttr-shape", 1.0)?);
    }
    if let Some(mtbf) = opts.get_opt("link-mtbf")? {
        faults = faults.with_link_faults(mtbf, opts.get("link-mttr", 900.0)?);
        faults.link_degrade_factor = opts.get_opt("link-degrade-factor")?;
    }
    if let Some(path) = opts.values.get("fault-trace") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        faults = faults.with_trace(FaultTrace::parse(&text)?);
    }
    Ok(faults)
}

fn build_checkpoint_config(opts: &Opts) -> Result<CheckpointConfig, String> {
    let policy = opts.values.get("checkpoint-policy").map(String::as_str);
    if policy.is_none() || policy == Some("none") {
        for flag in ["checkpoint-interval", "checkpoint-size"] {
            if opts.values.contains_key(flag) {
                return Err(format!("--{flag} requires --checkpoint-policy"));
            }
        }
        return Ok(CheckpointConfig::none());
    }
    let ckpt = match policy.expect("checked above") {
        "fixed" => CheckpointConfig::fixed(
            opts.get_opt("checkpoint-interval")?
                .ok_or("--checkpoint-policy fixed requires --checkpoint-interval")?,
        ),
        "young-daly" | "youngdaly" | "yd" => CheckpointConfig::young_daly(),
        "young-daly-adaptive" | "yda" => CheckpointConfig::young_daly_adaptive(),
        other => {
            return Err(format!(
                "unknown checkpoint policy `{other}` (none|fixed|young-daly|young-daly-adaptive)"
            ))
        }
    };
    let fixed = matches!(ckpt.policy, CheckpointPolicy::Fixed { .. });
    if !fixed && opts.values.contains_key("checkpoint-interval") {
        return Err("--checkpoint-interval only applies to --checkpoint-policy fixed".into());
    }
    match opts.get_opt::<f64>("checkpoint-size")? {
        Some(mb) => Ok(ckpt.with_size_bytes(mb * 1e6)),
        None => Ok(ckpt),
    }
}

/// `--adaptive` / `--control-tick`: the closed-loop controller surface.
///
/// `--checkpoint-policy young-daly-adaptive` enables the checkpoint loop
/// on its own (the policy *is* the loop's actuator), so `--adaptive
/// checkpoint` is only needed when combining it with other loops
/// explicitly.
fn build_control_config(opts: &Opts, adaptive_ckpt_policy: bool) -> Result<ControlConfig, String> {
    let mut control = ControlConfig::none();
    if let Some(raw) = opts.values.get("adaptive") {
        for name in raw.split(',').map(str::trim) {
            control = match name {
                "throttle" => control.with_adaptive_throttle(),
                "placement" => control.with_churn_placement(),
                "checkpoint" => control.with_adaptive_checkpoint(),
                "all" => control
                    .with_adaptive_throttle()
                    .with_churn_placement()
                    .with_adaptive_checkpoint(),
                other => {
                    return Err(format!(
                        "unknown control loop `{other}` (throttle|placement|checkpoint|all)"
                    ))
                }
            };
        }
    }
    if adaptive_ckpt_policy {
        control = control.with_adaptive_checkpoint();
    }
    if let Some(tick) = opts.get_opt::<f64>("control-tick")? {
        if control.is_inert() {
            return Err(
                "--control-tick requires --adaptive (or --checkpoint-policy \
                 young-daly-adaptive)"
                    .into(),
            );
        }
        control = control.with_tick_s(tick);
    }
    Ok(control)
}

fn cmd_simulate(opts: &Opts) -> Result<(), String> {
    for (dependent, required) in DEPENDENT_FLAGS {
        if opts.values.contains_key(*dependent) && !opts.values.contains_key(*required) {
            return Err(format!("--{dependent} requires --{required}"));
        }
    }
    let strategy: StrategyKind = opts.get("strategy", StrategyKind::Rest2)?;
    let workload = load_or_generate_workload(opts)?;
    let mut config = SimConfig::paper(workload, strategy)
        .with_sites(opts.get("sites", 10usize)?)
        .with_workers_per_site(opts.get("workers", 1usize)?)
        .with_capacity(opts.get("capacity", 6000usize)?)
        .with_policy(opts.get("policy", EvictionPolicy::Lru)?)
        .with_seed(opts.get("seed", 0u64)?)
        .with_eval_mode(opts.get("eval-mode", EvalMode::default())?);
    config.choose_n_override = opts.get_opt("choose-n")?;
    if let Some(t) = opts.get_opt::<u32>("replication-threshold")? {
        config = config.with_replication(ReplicationConfig {
            popularity_threshold: t,
            max_replicas_per_file: 1,
        });
    }
    config.replica_throttle.replica_cap = opts.get_opt("replica-cap")?;
    config.replica_throttle.site_budget = opts.get_opt("site-replica-budget")?;
    config.transfer_timeout_mult = opts.get_opt("transfer-timeout")?;
    config.transfer_retries = opts.get("transfer-retries", config.transfer_retries)?;
    config.retry_backoff_s = opts.get("retry-backoff", config.retry_backoff_s)?;
    config.probe_interval_s = opts.get_opt("probe-interval")?;
    for flag in ["trace-out", "metrics-out", "digest-out"] {
        if let Some(path) = opts.values.get(flag) {
            validate_out_path(flag, path)?;
        }
    }
    config.trace_out = opts.values.get("trace-out").cloned();
    config.metrics_out = opts.values.get("metrics-out").cloned();
    config.digest_out = opts.values.get("digest-out").cloned();
    config.digest_window_s = opts.get("digest-window", config.digest_window_s)?;
    config.serve_linger_s = opts.get("serve-linger", config.serve_linger_s)?;
    if let Some(addr) = opts.values.get("serve-metrics") {
        addr.parse::<std::net::SocketAddr>()
            .map_err(|e| format!("--serve-metrics: bad address `{addr}`: {e}"))?;
        config = config.with_serve_metrics(addr.clone());
    }
    let faults = build_fault_config(opts)?;
    if !faults.is_inert() {
        config = config.with_faults(faults);
    }
    let checkpointing = build_checkpoint_config(opts)?;
    let adaptive_ckpt_policy = checkpointing.policy == CheckpointPolicy::YoungDalyAdaptive;
    config.control = build_control_config(opts, adaptive_ckpt_policy)?;
    if !checkpointing.is_inert() {
        config = config.with_checkpointing(checkpointing);
    }
    config.validate().map_err(flag_error)?;
    let seeds = parse_seed_list(
        opts.values
            .get("topology-seeds")
            .map_or("0,1,2,3,4", String::as_str),
    )?;
    if config.serve_metrics.is_some() && seeds.len() > 1 {
        return Err(
            "--serve-metrics needs a single replicate (replicates run concurrently and \
             would contend for the port); pass one --topology-seeds entry"
                .into(),
        );
    }
    // Link indices are scoped to a generated topology, so check a fault
    // trace's link events against every replicate's before any runs.
    let trace = config.faults.as_ref().and_then(|f| f.trace.as_ref());
    if trace.and_then(FaultTrace::max_link).is_some() {
        for &ts in &seeds {
            let replicate = config.clone().with_topology_seed(ts);
            let topology = generate_topology(&replicate.topology);
            replicate.validate_links(&topology).map_err(flag_error)?;
        }
    }
    let telemetry_requested = config.telemetry_requested();
    let (report, spread) = run_averaged_with_spread(&config, &seeds);

    if opts.has("csv") {
        println!(
            "strategy,sites,workers,capacity,policy,tasks,makespan_min,file_transfers,bytes,avg_wait_h,avg_xfer_h,replicas,tasks_lost,re_executions,worker_availability,server_availability,ckpt_written,ckpt_lost,ckpt_restores,ckpt_overhead_h,work_saved_h,makespan_min_lo,makespan_min_hi"
        );
        println!(
            "{},{},{},{},{},{},{:.1},{},{:.0},{:.4},{:.4},{},{},{},{:.4},{:.4},{},{},{},{:.4},{:.4},{:.1},{:.1}",
            report.config.strategy,
            report.config.sites,
            report.config.workers_per_site,
            report.config.capacity_files,
            report.config.policy,
            report.config.tasks,
            report.makespan_minutes,
            report.file_transfers,
            report.bytes_transferred,
            report.avg_waiting_hours(),
            report.avg_transfer_hours(),
            report.replicas_launched,
            report.tasks_lost,
            report.re_executions,
            report.mean_worker_availability(),
            report.mean_server_availability(),
            report.checkpoints_written,
            report.checkpoints_lost,
            report.checkpoint_restores,
            report.checkpoint_overhead_s / 3600.0,
            report.work_saved_s / 3600.0,
            spread.makespan_minutes.0,
            spread.makespan_minutes.1,
        );
    } else {
        println!("strategy          : {}", report.config.strategy);
        println!(
            "grid              : {} sites x {} workers, capacity {} files, {} policy",
            report.config.sites,
            report.config.workers_per_site,
            report.config.capacity_files,
            report.config.policy
        );
        println!(
            "workload          : {} tasks, {:.0} MB files",
            report.config.tasks, report.config.file_size_mb
        );
        println!("topology seeds    : {seeds:?} (averaged)");
        println!(
            "makespan          : {:.0} min ({:.1} days)",
            report.makespan_minutes,
            report.makespan_minutes / 1440.0
        );
        if spread.replicates > 1 {
            println!(
                "makespan spread   : {:.0}–{:.0} min across {} replicates",
                spread.makespan_minutes.0, spread.makespan_minutes.1, spread.replicates
            );
        }
        println!("file transfers    : {}", report.file_transfers);
        println!(
            "bytes transferred : {:.1} GB",
            report.bytes_transferred / 1e9
        );
        println!(
            "request waits     : avg {:.3} h; batch transfers avg {:.3} h",
            report.avg_waiting_hours(),
            report.avg_transfer_hours()
        );
        if report.config.replica_throttle != "none" {
            println!("replica throttle  : {}", report.config.replica_throttle);
        }
        if report.config.control != "none" {
            println!("adaptive control  : {}", report.config.control);
        }
        if report.replicas_launched > 0 {
            println!(
                "replication       : {} launched, {} won, {} cancelled, {:.1} GB wasted",
                report.replicas_launched,
                report.replicas_completed,
                report.replicas_cancelled,
                report.cancelled_bytes / 1e9
            );
        }
        if report.replication_pushes > 0 {
            println!(
                "proactive pushes  : {} ({:.1} GB)",
                report.replication_pushes,
                report.replication_bytes / 1e9
            );
        }
        if report.config.faults != "none" {
            println!("faults            : {}", report.config.faults);
            println!(
                "churn             : {} worker crashes, {} server outages, {} files lost",
                report.worker_crashes, report.server_outages, report.files_lost
            );
            println!(
                "re-execution      : {} tasks lost, {} re-executions, {:.1} h compute wasted",
                report.tasks_lost,
                report.re_executions,
                report.wasted_compute_s / 3600.0
            );
            println!(
                "availability      : workers {:.2}%, data servers {:.2}%",
                report.mean_worker_availability() * 100.0,
                report.mean_server_availability() * 100.0
            );
        }
        if report.link_outages > 0 {
            println!(
                "link faults       : {} outage windows, {:.1} h link downtime",
                report.link_outages,
                report.link_downtime_s / 3600.0
            );
        }
        if report.config.transfer_guard != "none" {
            println!("transfer guard    : {}", report.config.transfer_guard);
            println!(
                "transfer recovery : {} timeouts, {} retries, {} failovers, {} requeues",
                report.xfer_timeouts,
                report.xfer_retries,
                report.xfer_failovers,
                report.flows_requeued
            );
            println!(
                "resume savings    : {:.2} GB resumed, {:.2} GB retransmitted",
                report.xfer_bytes_resumed / 1e9,
                report.xfer_bytes_retransmitted / 1e9
            );
        }
        if report.config.checkpointing != "none" {
            println!("checkpointing     : {}", report.config.checkpointing);
            println!(
                "checkpoints       : {} written, {} lost, {} restores",
                report.checkpoints_written, report.checkpoints_lost, report.checkpoint_restores
            );
            println!(
                "checkpoint cost   : {:.1} h overhead; {:.1} h of compute saved from re-execution",
                report.checkpoint_overhead_s / 3600.0,
                report.work_saved_s / 3600.0
            );
        }
        // Replicates run concurrently, so multi-seed runs suffix the
        // output paths per seed (see `SimConfig::suffix_outputs_for_seed`).
        let suffix = if seeds.len() > 1 { ".seed<N>" } else { "" };
        if telemetry_requested {
            if let Some(path) = &config.trace_out {
                println!("trace written     : {path}{suffix}");
            }
            if let Some(path) = &config.metrics_out {
                println!("metrics written   : {path}{suffix}");
            }
        }
        if let Some(path) = &config.digest_out {
            println!("digest written    : {path}{suffix}");
        }
        if let Some(addr) = &config.serve_metrics {
            println!("metrics served    : http://{addr}/metrics (run finished)");
        }
    }
    Ok(())
}

fn cmd_analyze(opts: &Opts) -> Result<(), String> {
    let path = opts
        .values
        .get("trace")
        .ok_or("analyze requires --trace FILE (a Chrome trace written by simulate --trace-out)")?;
    let top: usize = opts.get("top", 5usize)?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let report =
        BlameReport::from_chrome_trace(&text).map_err(|e| format!("analyze {path}: {e}"))?;
    if let Some(out) = opts.values.get("blame-out") {
        validate_out_path("blame-out", out)?;
        std::fs::write(out, report.to_json()).map_err(|e| format!("write {out}: {e}"))?;
    }
    print!("{}", report.summary(top));
    if let Some(out) = opts.values.get("blame-out") {
        println!("blame written     : {out}");
    }
    Ok(())
}

fn cmd_diff_digests(opts: &Opts) -> Result<ExitCode, String> {
    let [a_path, b_path] = opts.positionals.as_slice() else {
        return Err(
            "diff-digests takes exactly two digest files: gridsched diff-digests a.jsonl b.jsonl"
                .into(),
        );
    };
    let load = |p: &str| -> Result<DigestStream, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("read {p}: {e}"))?;
        DigestStream::parse_jsonl(&text).map_err(|e| format!("parse {p}: {e}"))
    };
    let a = load(a_path)?;
    let b = load(b_path)?;
    match diff_digests(&a, &b)? {
        None => {
            println!(
                "digests identical: {} events, final hash {:016x}",
                a.events, a.final_hash
            );
            Ok(ExitCode::SUCCESS)
        }
        Some(d) => {
            println!(
                "digests diverge at window {} (t0 {} sim s): event ordinals {}..={}",
                d.window, d.t0_s, d.ordinal_lo, d.ordinal_hi
            );
            println!("  {}", d.detail);
            if d.ordinal_lo == d.ordinal_hi {
                println!(
                    "  exact: the first divergent event is ordinal {}",
                    d.ordinal_lo
                );
            }
            Ok(ExitCode::from(3))
        }
    }
}

/// Rejects a telemetry output path whose parent directory does not exist —
/// catching the typo up front instead of panicking after a long run.
fn validate_out_path(flag: &str, path: &str) -> Result<(), String> {
    let parent = std::path::Path::new(path).parent();
    let parent = match parent {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => std::path::PathBuf::from("."),
    };
    if !parent.is_dir() {
        return Err(format!(
            "--{flag}: parent directory `{}` does not exist",
            parent.display()
        ));
    }
    Ok(())
}

fn cmd_workload(opts: &Opts) -> Result<(), String> {
    let wl = coadd_config(opts, "seed")?.generate();
    let s = wl.stats();
    println!("tasks              : {}", s.tasks);
    println!("total files        : {}", s.total_files);
    println!(
        "files per task     : min {} / mean {:.2} / max {}",
        s.min_files_per_task, s.mean_files_per_task, s.max_files_per_task
    );
    println!("files with >=6 refs: {:.1}%", s.pct_files_with_at_least(6));
    if let Some(path) = opts.values.get("out") {
        let file = std::fs::File::create(path).map_err(|e| format!("create {path}: {e}"))?;
        trace::write_trace(&wl, std::io::BufWriter::new(file))
            .map_err(|e| format!("write {path}: {e}"))?;
        println!("trace written      : {path}");
    }
    Ok(())
}

fn cmd_topology(opts: &Opts) -> Result<(), String> {
    let mut cfg = TiersConfig::paper(opts.get("seed", 0u64)?);
    let sites = opts.get_count("sites", 90usize)?;
    if !sites.is_multiple_of(cfg.sites_per_man) && sites < cfg.sites_per_man {
        cfg.mans = 1;
        cfg.sites_per_man = sites;
    } else if sites != cfg.site_count() {
        cfg.mans = sites.div_ceil(cfg.sites_per_man);
    }
    let topo = generate_topology(&cfg);
    println!("nodes     : {}", topo.graph.node_count());
    println!("links     : {}", topo.graph.edge_count());
    println!("sites     : {}", topo.sites.len());
    let (mut min_bw, mut max_bw) = (f64::MAX, f64::MIN);
    let mut lat_sum = 0.0;
    for i in 0..topo.sites.len() {
        let r = topo.routes.site_to_file_server(i);
        let bw = r.bottleneck_bps(&topo.graph);
        min_bw = min_bw.min(bw);
        max_bw = max_bw.max(bw);
        lat_sum += r.latency_s;
    }
    println!(
        "site→file-server: bottleneck {:.2}–{:.2} MB/s, mean latency {:.1} ms",
        min_bw / 1e6,
        max_bw / 1e6,
        lat_sum / topo.sites.len() as f64 * 1e3
    );
    if let Some(path) = opts.values.get("dot") {
        std::fs::write(path, to_dot(&topo)).map_err(|e| format!("write {path}: {e}"))?;
        println!("dot written: {path}");
    }
    Ok(())
}
