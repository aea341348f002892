//! `gridsched-perfbench` — the repository benchmark.
//!
//! Measures what a user of the simulator waits for: the host time of one
//! complete simulation (`run_ref`, in units of a fixed reference kernel's
//! time), the set-up before a simulation can start (`setup_s`: generating
//! the workload and building the simulator) and peak memory
//! (`peak_rss_mb`). Four workloads each load a different layer of the
//! simulator (see [`workloads::Kind`]).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sched|net|storage|faults> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run performs complete simulations back to back — a closed loop, one at
//! a time — cycling through the workload's inputs until `--seconds` have
//! passed and always finishing the current cycle, so every input weighs the
//! same. Each simulation is set up from scratch and then run; the two are
//! timed apart. Shared hosts run up to 1.7 times slower for seconds at a
//! time, so each input is represented by its fastest run and its fastest
//! set-up, and simulations are kept short (tens of milliseconds) so that a
//! cycle over the inputs fits inside the host's brief fast spells. Over
//! minutes even the fastest speed drifts by a third, so the [`reference`]
//! kernel is timed before every simulation: `run_ref` is the mean over the
//! inputs of their fastest run divided by the kernel's fastest run.
//! `setup_s` is the median of the inputs' fastest set-ups, in seconds.
//!
//! Every simulation is checked: all tasks complete, the flow ledger
//! balances, the input still exercises its layer, and each repeat of an
//! input reproduces its first report exactly. With `--trace 1` telemetry is
//! switched on as well, and the traced reports must equal the untraced
//! ones; that run reports per-layer operation counts, host time per
//! operation from direct calls into the event queue, solver and store
//! ([`layers`]), the absolute run and reference-kernel times, and the
//! tracing overhead.
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

mod layers;
mod reference;
mod workloads;

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use gridsched_sim::telemetry::InstrumentValue;
use gridsched_sim::{GridSim, MetricsReport, Telemetry};

use workloads::{Kind, INPUTS_PER_RUN};

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| {
                    let names: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
                    format!("unknown workload `{value}` (one of {})", names.join(", "))
                })?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed `{value}`"))?),
            "--seconds" => {
                let s: u64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds `{value}`"))?;
                if s == 0 {
                    return Err("--seconds must be at least 1".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                });
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!(
            "error: {e}\nusage: gridsched-perfbench --workload <sched|net|storage|faults> \
             --seed <n> --seconds <s> --trace <0|1>"
        );
        std::process::exit(2);
    });
    let mut bench = Bench::new(&args);
    let metrics = if args.trace {
        bench.per_layer(&args)
    } else {
        bench.end_to_end(&args)
    };
    let correct = bench.failed == 0;
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        bench.attempted, bench.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    println!("{out}");
}

/// A metric as printed: name, value, unit.
type Metric = (&'static str, f64, &'static str);

struct Bench {
    kind: Kind,
    seed: u64,
    /// The first report of each input; every later run must reproduce it.
    references: Vec<Option<MetricsReport>>,
    /// Set-up times, one list per input.
    setups: Vec<Vec<f64>>,
    /// Times of the reference kernel, one before each untraced run.
    reference: Vec<f64>,
    attempted: u64,
    failed: u64,
}

impl Bench {
    fn new(args: &Args) -> Bench {
        let inputs = INPUTS_PER_RUN as usize;
        Bench {
            kind: args.kind,
            seed: args.seed,
            references: vec![None; inputs],
            setups: vec![Vec::new(); inputs],
            reference: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Sets input `i` up from scratch (generates its workload and builds
    /// the simulator), runs it once and checks the report. Records the
    /// set-up time and returns the host seconds `run()` took.
    fn run(&mut self, i: usize, telemetry: Option<&Telemetry>) -> f64 {
        let started = Instant::now();
        let config = self.kind.input(self.seed, i as u64);
        let tasks = config.workload.task_count() as u64;
        let mut sim = GridSim::new(config);
        self.setups[i].push(started.elapsed().as_secs_f64());
        if let Some(t) = telemetry {
            sim = sim.with_telemetry(t.clone());
        }
        let started = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| sim.run()));
        let wall_s = started.elapsed().as_secs_f64();
        self.attempted += 1;
        let verdict = match outcome {
            Err(_) => Err("simulation panicked".to_string()),
            Ok(report) => {
                self.kind
                    .check(tasks, &report)
                    .and_then(|()| match &self.references[i] {
                        None => {
                            self.references[i] = Some(report);
                            Ok(())
                        }
                        Some(first) if *first == report => Ok(()),
                        Some(_) => Err("report differs from this input's first run".to_string()),
                    })
            }
        };
        if let Err(why) = verdict {
            self.failed += 1;
            eprintln!("FAIL {} input {i}: {why}", self.kind.name());
        }
        wall_s
    }

    /// Runs whole cycles over the inputs until `seconds` have passed and
    /// returns each input's run times, untraced and (when `traced`) with
    /// telemetry on, alternating so both see the same host conditions. The
    /// reference kernel is timed before every untraced run.
    fn timed(&mut self, seconds: u64, traced: bool) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        let inputs = self.references.len();
        let mut plain = vec![Vec::new(); inputs];
        let mut with_telemetry = vec![Vec::new(); inputs];
        let deadline = Instant::now() + Duration::from_secs(seconds);
        loop {
            for i in 0..inputs {
                let started = Instant::now();
                reference::kernel();
                self.reference.push(started.elapsed().as_secs_f64());
                plain[i].push(self.run(i, None));
                if traced {
                    with_telemetry[i].push(self.run(i, Some(&Telemetry::enabled())));
                }
            }
            if Instant::now() >= deadline {
                return (plain, with_telemetry);
            }
        }
    }

    fn end_to_end(&mut self, args: &Args) -> Vec<Metric> {
        let (plain, _) = self.timed(args.seconds, false);
        // The kernel's fastest run gauges the host at its best, in the same
        // spells as the simulations' fastest runs.
        vec![
            (
                "run_ref",
                mean(&best_per_input(&plain)) / fastest(&self.reference),
                "ref",
            ),
            ("setup_s", median(&best_per_input(&self.setups)), "s"),
            ("peak_rss_mb", peak_rss_mb(), "MB"),
        ]
    }

    fn per_layer(&mut self, args: &Args) -> Vec<Metric> {
        // Counts come from one traced run per input, which must report
        // exactly what the untraced run of that input did.
        let mut counts = LayerCounts::default();
        for i in 0..self.references.len() {
            self.run(i, None);
            let telemetry = Telemetry::enabled();
            self.run(i, Some(&telemetry));
            if let Some(report) = &self.references[i] {
                counts.add(report, &telemetry);
            }
        }
        let (plain, traced) = self.timed(args.seconds, true);
        let (plain, traced) = (best_per_input(&plain), best_per_input(&traced));
        let n = self.references.len() as f64;
        let per_run = |total: u64| total as f64 / n;
        let first = &self.kind.input(self.seed, 0);
        let flows = (counts.touched_flows as f64 / counts.recomputes.max(1) as f64).round();
        vec![
            ("events", per_run(counts.events), "count"),
            (
                "ns_per_event",
                1e9 * plain.iter().sum::<f64>() / counts.events.max(1) as f64,
                "ns",
            ),
            (
                "queue_ns_per_op",
                layers::queue_ns_per_op(first, args.seed),
                "ns",
            ),
            ("rank_picks", per_run(counts.picks), "count"),
            ("rank_repairs", per_run(counts.repairs), "count"),
            ("wake_calls", per_run(counts.wakes), "count"),
            ("solver_recomputes", per_run(counts.recomputes), "count"),
            ("solver_flows_per_recompute", flows, "count"),
            (
                "solver_us_per_solve",
                layers::solver_us_per_solve(first, flows as usize, args.seed),
                "us",
            ),
            ("file_transfers", per_run(counts.transfers), "count"),
            ("evictions", per_run(counts.evictions), "count"),
            (
                "store_ns_per_ref",
                layers::store_ns_per_ref(first, args.seed),
                "ns",
            ),
            ("fault_events", per_run(counts.faults), "count"),
            ("xfer_retries", per_run(counts.retries), "count"),
            ("makespan_min", counts.makespan_min / n, "min"),
            ("run_ms", 1e3 * mean(&plain), "ms"),
            ("reference_ms", 1e3 * fastest(&self.reference), "ms"),
            ("traced_run_ms", 1e3 * mean(&traced), "ms"),
            (
                "tracing_overhead_pct",
                100.0 * (traced.iter().sum::<f64>() / plain.iter().sum::<f64>() - 1.0),
                "%",
            ),
        ]
    }
}

/// Per-layer work of the traced runs, summed over the inputs.
#[derive(Default)]
struct LayerCounts {
    events: u64,
    picks: u64,
    repairs: u64,
    wakes: u64,
    recomputes: u64,
    touched_flows: u64,
    transfers: u64,
    evictions: u64,
    faults: u64,
    retries: u64,
    makespan_min: f64,
}

impl LayerCounts {
    fn add(&mut self, report: &MetricsReport, telemetry: &Telemetry) {
        for snap in telemetry.snapshot() {
            match (snap.name, snap.value) {
                ("scheduler.rank.picks", InstrumentValue::Counter { value }) => self.picks += value,
                ("scheduler.rank.repairs", InstrumentValue::Counter { value }) => {
                    self.repairs += value;
                }
                ("engine.wake.calls", InstrumentValue::Counter { value }) => self.wakes += value,
                ("net.solver.recomputes", InstrumentValue::Counter { value }) => {
                    self.recomputes += value;
                }
                ("net.solver.touched_flows", InstrumentValue::Histogram { sum, .. }) => {
                    self.touched_flows += sum;
                }
                _ => {}
            }
        }
        self.events += report.events_dispatched;
        self.transfers += report.file_transfers;
        self.evictions += report.total_evictions;
        self.faults += report.worker_crashes + report.server_outages + report.link_outages;
        self.retries += report.xfer_retries;
        self.makespan_min += report.makespan_minutes;
    }
}

/// Each input's fastest sample: its cost on an uncontended host, where its
/// median would also read the host's load.
fn best_per_input(samples: &[Vec<f64>]) -> Vec<f64> {
    samples.iter().map(|s| fastest(s)).collect()
}

fn fastest(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Median of a non-empty sample.
fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}
