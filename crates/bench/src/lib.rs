//! # gridsched-bench — the experiment harness
//!
//! The paper's figures and tables, the `ChooseTask(n)` finding, the
//! ablations and the scaling benchmark (`perf_scale`, `perf_scale_1e5`)
//! are entries of one registry, `CLAIMS`, run by the `claims` binary
//! ([`run_claims`]). The criterion micro-benchmarks in `benches/` stand
//! apart. This library holds the registry, the run context `Ctx` every
//! entry reads its options from and reports through, and the
//! aligned-table printing.
//!
//! ```text
//! claims [--quick] [--check] [--out DIR | --no-out] [--seeds a,b,c] [NAME...]
//! ```
//!
//! * `NAME...` — the entries to run, always in registry order (when none
//!   is named, every entry but the hour-long `perf_scale_1e5`);
//! * `--quick` — 2 topology replicates and a 1,500-task workload instead
//!   of 5 × 6,000 (for CI and smoke runs);
//! * `--out <dir>` — also write every table as CSV, and what each entry
//!   reported (tables and checks) as `claims.json` (default `results/`);
//! * `--check` — assert the paper's qualitative claims and exit non-zero
//!   at the first one the reproduction lost;
//! * `--seeds a,b,c` — override the topology seed list.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::RefCell;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use gridsched_core::StrategyKind;
use gridsched_sim::telemetry::json::write_json_string;
use gridsched_sim::{run_averaged, MetricsReport, SimConfig};
use gridsched_workload::coadd::CoaddConfig;
use gridsched_workload::Workload;

mod ablations;
mod adaptive;
mod netfaults;
mod paper;
mod scale;

/// A registry entry: the claim's command-line name and its body.
type Claim = (&'static str, fn(&Ctx));

/// The registry: every claim, in run order.
const CLAIMS: &[Claim] = &[
    ("fig1_3_file_cdf", paper::fig1_3_file_cdf),
    ("fig4_capacity", paper::fig4_capacity),
    ("fig6_workers", paper::fig6_workers),
    ("fig7_sites", paper::fig7_sites),
    ("fig8_filesize", paper::fig8_filesize),
    ("table2_workload", paper::table2_workload),
    ("table3_waiting", paper::table3_waiting),
    ("ablation_adaptive", adaptive::ablation_adaptive),
    ("ablation_baselines", ablations::ablation_baselines),
    ("ablation_checkpoint", ablations::ablation_checkpoint),
    ("ablation_choose_n", ablations::ablation_choose_n),
    ("ablation_churn", ablations::ablation_churn),
    ("ablation_compute_scale", ablations::ablation_compute_scale),
    ("ablation_netfaults", netfaults::ablation_netfaults),
    ("ablation_policy", ablations::ablation_policy),
    ("ablation_replication", ablations::ablation_replication),
    ("perf_scale", scale::perf_scale),
    ("perf_scale_1e5", scale::perf_scale_1e5),
];

/// The claims a run that names none leaves out: the 10⁵-worker scale
/// point alone takes about an hour.
const WHEN_NAMED: &[&str] = &["perf_scale_1e5"];

/// The entries a run executes, in registry order: the `named` ones, or
/// every entry not `WHEN_NAMED` when none is named.
fn selection(named: &[String]) -> impl Iterator<Item = &'static Claim> + '_ {
    CLAIMS.iter().filter(move |&&(name, _)| {
        if named.is_empty() {
            !WHEN_NAMED.contains(&name)
        } else {
            named.iter().any(|n| n == name)
        }
    })
}

/// Runs the claims the command line `args` (program name excluded) picks,
/// then writes `claims.json` under `--out`. Usage errors exit 2, and under
/// `--check` the first failing check exits 1.
pub fn run_claims(args: impl Iterator<Item = String>) {
    let mut ctx = Ctx::default();
    let mut picked = Vec::new();
    let mut args = args;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => {
                ctx.quick = true;
                ctx.seeds = vec![0, 1];
            }
            "--check" => ctx.check = true,
            "--no-out" => ctx.out_dir = None,
            "--out" => {
                let dir = args
                    .next()
                    .unwrap_or_else(|| usage("--out needs a directory"));
                ctx.out_dir = Some(PathBuf::from(dir));
            }
            "--seeds" => {
                let list = args.next().unwrap_or_else(|| usage("--seeds needs a list"));
                ctx.seeds = list
                    .split(',')
                    .map(|s| s.trim().parse().unwrap_or_else(|_| usage("bad seed list")))
                    .collect();
            }
            "--help" | "-h" => {
                print_usage();
                std::process::exit(0);
            }
            flag if flag.starts_with('-') => usage(&format!("unknown flag `{flag}`")),
            name if CLAIMS.iter().any(|&(n, _)| n == name) => picked.push(arg),
            name => usage(&format!("unknown claim `{name}`")),
        }
    }
    for &(name, body) in selection(&picked) {
        ctx.records.borrow_mut().push(Record {
            name,
            tables: Vec::new(),
            checks: Vec::new(),
        });
        body(&ctx);
    }
    ctx.write_json();
}

const USAGE: &str =
    "usage: claims [--quick] [--check] [--out DIR | --no-out] [--seeds a,b,c] [NAME...]";

fn print_usage() {
    let names: Vec<&str> = CLAIMS.iter().map(|&(n, _)| n).collect();
    eprintln!("{USAGE}\nnames: {}", names.join(" "));
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    print_usage();
    std::process::exit(2);
}

/// The run context of the claims: the command-line options every entry
/// reads, and the collector of the tables and checks each one reports.
#[derive(Debug)]
pub(crate) struct Ctx {
    /// Reduced workload and replicate count.
    pub(crate) quick: bool,
    /// Where to write CSV output and `claims.json` (`None` disables).
    out_dir: Option<PathBuf>,
    /// Assert the paper's qualitative claims.
    check: bool,
    /// Topology seeds to average over.
    pub(crate) seeds: Vec<u64>,
    records: RefCell<Vec<Record>>,
}

/// What one entry reported.
#[derive(Debug)]
struct Record {
    name: &'static str,
    tables: Vec<Table>,
    checks: Vec<(String, bool)>,
}

impl Default for Ctx {
    fn default() -> Self {
        Ctx {
            quick: false,
            out_dir: Some(PathBuf::from("results")),
            check: false,
            seeds: vec![0, 1, 2, 3, 4],
            records: RefCell::default(),
        }
    }
}

impl Ctx {
    /// The Coadd workload for this run (scaled down under `--quick`).
    #[must_use]
    pub(crate) fn workload(&self) -> Arc<Workload> {
        Arc::new(self.coadd_config().generate())
    }

    /// The Coadd generator config for this run (for entries that sweep
    /// workload parameters, e.g. file size).
    #[must_use]
    pub(crate) fn coadd_config(&self) -> CoaddConfig {
        let mut cfg = CoaddConfig::paper_6000();
        if self.quick {
            cfg.tasks = 1500;
        }
        cfg
    }

    /// Runs `config` averaged over the topology seeds.
    #[must_use]
    pub(crate) fn run(&self, config: &SimConfig) -> MetricsReport {
        run_averaged(config, &self.seeds)
    }

    /// Prints `table`, writes it as `<name>.csv` under `--out` and records
    /// it for `claims.json`.
    pub(crate) fn emit(&self, table: Table, name: &str) {
        print!("{}", table.render());
        if let Some(dir) = &self.out_dir {
            write_out(dir, &format!("{name}.csv"), &table.to_csv());
        }
        self.record(table);
    }

    /// Records `table` for `claims.json` only: numbers the entry prints
    /// in its own words rather than as a table.
    pub(crate) fn record(&self, table: Table) {
        self.records
            .borrow_mut()
            .last_mut()
            .expect("an entry is running")
            .tables
            .push(table);
    }

    /// Records a check and prints its PASS/FAIL line; under `--check`, a
    /// failing check writes `claims.json` and exits 1.
    pub(crate) fn check(&self, label: &str, pass: bool) {
        self.records
            .borrow_mut()
            .last_mut()
            .expect("an entry is running")
            .checks
            .push((label.to_string(), pass));
        if pass {
            println!("CHECK PASS: {label}");
        } else if self.check {
            eprintln!("CHECK FAIL: {label}");
            self.write_json();
            std::process::exit(1);
        } else {
            println!("CHECK FAIL (informational): {label}");
        }
    }

    /// Writes `claims.json` under `--out`: for each entry that ran, its
    /// name, the run's options, and every table and check it reported.
    fn write_json(&self) {
        let Some(dir) = &self.out_dir else { return };
        let strs = |items: &[String]| list(items.iter().map(|s| json_str(s)));
        let seeds = list(self.seeds.iter().map(u64::to_string));
        let records = self.records.borrow();
        let entries: Vec<String> = records
            .iter()
            .map(|r| {
                let tables = r.tables.iter().map(|t| {
                    format!(
                        "{{\"title\": {}, \"headers\": {}, \"rows\": {}}}",
                        json_str(&t.title),
                        strs(&t.headers),
                        list(t.rows.iter().map(|row| strs(row)))
                    )
                });
                let checks = r.checks.iter().map(|(label, pass)| {
                    format!("{{\"label\": {}, \"pass\": {pass}}}", json_str(label))
                });
                format!(
                    "{{\"name\": \"{}\", \"quick\": {}, \"seeds\": {seeds}, \"tables\": {}, \
                 \"checks\": {}}}",
                    r.name,
                    self.quick,
                    list(tables),
                    list(checks)
                )
            })
            .collect();
        let json = format!("{{\"claims\": [\n{}\n]}}\n", entries.join(",\n"));
        write_out(dir, "claims.json", &json);
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::new();
    write_json_string(&mut out, s);
    out
}

fn list(items: impl Iterator<Item = String>) -> String {
    format!("[{}]", items.collect::<Vec<_>>().join(", "))
}

/// Writes `contents` to `<dir>/<file>`, creating the directory; a failure
/// is a warning, not an abort.
fn write_out(dir: &Path, file: &str, contents: &str) {
    let path = dir.join(file);
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, contents)) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write {file}: {e}"),
    }
}

/// The reports of one sweep: for each x, every strategy's run, in order.
#[derive(Debug)]
pub(crate) struct Sweep {
    strategies: Vec<StrategyKind>,
    /// `reports[strategy][x]`.
    reports: Vec<Vec<MetricsReport>>,
}

impl Sweep {
    /// For each x, for each strategy: builds the config, runs it, hands
    /// the report to `row` (to push the table rows) and keeps it.
    pub(crate) fn run<X: Copy>(
        ctx: &Ctx,
        xs: &[X],
        strategies: &[StrategyKind],
        config: impl Fn(X, StrategyKind) -> SimConfig,
        mut row: impl FnMut(X, StrategyKind, &MetricsReport),
    ) -> Self {
        let mut reports = vec![Vec::new(); strategies.len()];
        for &x in xs {
            for (i, &strategy) in strategies.iter().enumerate() {
                let r = ctx.run(&config(x, strategy));
                row(x, strategy, &r);
                reports[i].push(r);
            }
        }
        Sweep {
            strategies: strategies.to_vec(),
            reports,
        }
    }

    /// `strategy`'s reports across the sweep, in x order.
    #[must_use]
    pub(crate) fn of(&self, strategy: StrategyKind) -> &[MetricsReport] {
        let i = self
            .strategies
            .iter()
            .position(|&s| s == strategy)
            .expect("strategy in sweep");
        &self.reports[i]
    }

    /// `strategy`'s makespans (minutes) across the sweep, in x order.
    #[must_use]
    pub(crate) fn makespans(&self, strategy: StrategyKind) -> Vec<f64> {
        self.of(strategy)
            .iter()
            .map(|r| r.makespan_minutes)
            .collect()
    }

    /// The best makespan of the four transfer-aware worker-centric
    /// strategies at the `x`-th point.
    #[must_use]
    pub(crate) fn best_worker_centric(&self, x: usize) -> f64 {
        [
            StrategyKind::Rest,
            StrategyKind::Combined,
            StrategyKind::Rest2,
            StrategyKind::Combined2,
        ]
        .iter()
        .map(|&k| self.of(k)[x].makespan_minutes)
        .fold(f64::MAX, f64::min)
    }
}

/// A printable/serialisable results table.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given title and column headers.
    #[must_use]
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(ToString::to_string).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringified cells).
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders an aligned text table.
    #[must_use]
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", fmt_row(&self.headers, &widths));
        let _ = writeln!(
            out,
            "{}",
            widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  ")
        );
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        out
    }

    /// Renders RFC-4180-ish CSV (no quoting needed for our cells).
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.headers.join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.join(","));
        }
        out
    }
}

/// Formats a float with `digits` decimals.
#[must_use]
pub(crate) fn fmt(value: f64, digits: usize) -> String {
    format!("{value:.digits$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_render_and_csv() {
        let mut t = Table::new("demo", &["x", "makespan"]);
        t.push_row(vec!["3000".into(), "26887".into()]);
        t.push_row(vec!["6000".into(), "26974".into()]);
        let rendered = t.render();
        assert!(rendered.contains("== demo =="));
        assert!(rendered.contains("26887"));
        let csv = t.to_csv();
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.starts_with("x,makespan"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_enforced() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.push_row(vec!["1".into()]);
    }

    #[test]
    fn default_cli() {
        let ctx = Ctx::default();
        assert_eq!(ctx.seeds.len(), 5);
        assert!(!ctx.quick);
        assert_eq!(ctx.out_dir, Some(PathBuf::from("results")));
    }

    #[test]
    fn the_hour_long_scale_point_runs_only_when_named() {
        let names = |named: &[&str]| -> Vec<&str> {
            let named: Vec<String> = named.iter().map(ToString::to_string).collect();
            selection(&named).map(|&(n, _)| n).collect()
        };
        let all = names(&[]);
        assert!(all.contains(&"perf_scale"));
        assert!(!all.contains(&"perf_scale_1e5"));
        assert_eq!(all.len(), CLAIMS.len() - 1);
        assert_eq!(names(&["perf_scale_1e5"]), ["perf_scale_1e5"]);
    }

    #[test]
    fn quick_workload_is_smaller() {
        let quick = Ctx {
            quick: true,
            ..Ctx::default()
        };
        assert_eq!(quick.workload().task_count(), 1500);
    }
}
