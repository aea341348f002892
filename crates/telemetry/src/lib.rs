//! # gridsched-telemetry — deterministic observability for the simulator
//!
//! Counters, histograms, lifecycle spans and a sim-time probe sampler,
//! designed around one hard requirement: **telemetry must be provably
//! inert**. Recording an instrument draws no randomness, schedules no
//! event and allocates nothing on the hot path when disabled — a run with
//! telemetry fully on produces a byte-identical `MetricsReport` to a run
//! with it off (property-tested in `tests/scheduler_equivalence.rs` of the
//! workspace root).
//!
//! The design that makes this cheap:
//!
//! * every instrument handle ([`Counter`], [`Histogram`]) is an
//!   `Option<Rc<…>>` — the disabled state is `None`, so a hot-path record
//!   is a single branch on a niche-optimised option;
//! * handles are distributed *down* the stack (scheduler strategies, the
//!   network solver, the engine) from one shared [`Telemetry`] facade, so
//!   the instrumented layers never know whether anyone is listening;
//! * `Rc`, not `Arc`: a simulation (including its boxed scheduler) lives
//!   on one thread; only the plain-data configuration crosses threads.
//!
//! Three views of a run:
//!
//! * the [`Registry`] of named instruments (hot-path cost counters — rank
//!   repairs, pending-log replays, solver recomputes, wake fan-outs,
//!   throttle admits/parks/releases);
//! * the trace of per-entity spans ([`TraceEvent`]s on [`Track`]s: task
//!   lifecycle phases on worker tracks, fault/outage windows), exportable
//!   as Chrome Trace Event Format JSON (loadable in Perfetto /
//!   `chrome://tracing`);
//! * the [`ProbeSample`] time series (per-site queue depth, worker states,
//!   in-flight flows, link occupancy), exportable as compact JSONL.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
pub mod digest;
pub mod expose;
mod instruments;
pub mod json;
mod probe;
mod trace;

pub use analyze::{BlameReport, ParsedEvent, PathSegment, TaskBlame};
pub use digest::{diff_digests, DigestFold, DigestStream, Divergence, WindowDigest};
pub use expose::{render_prometheus, MetricsServer};
pub use instruments::{Counter, Histogram, InstrumentSnapshot, InstrumentValue, Registry};
pub use probe::{ProbeSample, SiteProbe};
pub use trace::{SpanPhase, TraceEvent, Track};

use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;

/// The shared telemetry facade: one per simulation run.
///
/// Cheap to clone (an `Rc` handle); [`Telemetry::disabled`] is a `None`
/// that makes every recording call a no-op branch. All accessors are
/// `&self` (interior mutability) so instrumented layers can record through
/// shared handles.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Option<Rc<Inner>>,
}

#[derive(Debug, Default)]
struct Inner {
    registry: Registry,
    tracer: trace::Tracer,
    probes: RefCell<Vec<ProbeSample>>,
}

impl Telemetry {
    /// An enabled collector: instruments, spans and probes are recorded.
    #[must_use]
    pub fn enabled() -> Self {
        Telemetry {
            inner: Some(Rc::new(Inner::default())),
        }
    }

    /// The inert collector: every recording call is a no-op.
    #[must_use]
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// Whether this collector records anything.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// A named counter (deduplicated by name: the same name always yields
    /// the same underlying cell). Disabled collectors return an inert
    /// handle.
    #[must_use]
    pub fn counter(&self, name: &'static str) -> Counter {
        self.inner
            .as_ref()
            .map_or_else(Counter::disabled, |i| i.registry.counter(name))
    }

    /// A named fixed-bucket (power-of-two) histogram, deduplicated by
    /// name. Disabled collectors return an inert handle.
    #[must_use]
    pub fn histogram(&self, name: &'static str) -> Histogram {
        self.inner
            .as_ref()
            .map_or_else(Histogram::disabled, |i| i.registry.histogram(name))
    }

    /// Opens a span on `track` at simulation time `ts_s` (seconds).
    pub fn span_begin(&self, track: Track, name: &'static str, ts_s: f64) {
        if let Some(i) = &self.inner {
            i.tracer.begin(track, name, ts_s, None);
        }
    }

    /// Opens a span attributed to `task` (emitted as `args.task`, which
    /// the forensics analyzer uses to group attempts by task).
    pub fn span_begin_for_task(&self, track: Track, name: &'static str, ts_s: f64, task: u64) {
        if let Some(i) = &self.inner {
            i.tracer.begin(track, name, ts_s, Some(task));
        }
    }

    /// Closes the innermost open span named `name` on `track`.
    pub fn span_end(&self, track: Track, name: &'static str, ts_s: f64) {
        if let Some(i) = &self.inner {
            i.tracer.end(track, name, ts_s);
        }
    }

    /// Records an instantaneous event on `track`.
    pub fn instant(&self, track: Track, name: &'static str, ts_s: f64) {
        if let Some(i) = &self.inner {
            i.tracer.instant(track, name, ts_s, None);
        }
    }

    /// Records an instantaneous event attributed to `task`.
    pub fn instant_for_task(&self, track: Track, name: &'static str, ts_s: f64, task: u64) {
        if let Some(i) = &self.inner {
            i.tracer.instant(track, name, ts_s, Some(task));
        }
    }

    /// Appends one probe sample to the time series.
    pub fn record_probe(&self, sample: ProbeSample) {
        if let Some(i) = &self.inner {
            i.probes.borrow_mut().push(sample);
        }
    }

    /// Snapshot of every named instrument, sorted by name.
    #[must_use]
    pub fn snapshot(&self) -> Vec<InstrumentSnapshot> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |i| i.registry.snapshot())
    }

    /// All recorded trace events, in emission order.
    #[must_use]
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |i| i.tracer.events())
    }

    /// The recorded probe time series, in emission order.
    #[must_use]
    pub fn probes(&self) -> Vec<ProbeSample> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |i| i.probes.borrow().clone())
    }

    /// Renders the run as a Chrome Trace Event Format JSON document
    /// (`{"traceEvents": […]}`): lifecycle/fault spans as `B`/`E` duration
    /// events, probe series as `C` counter events, plus process-name
    /// metadata so Perfetto labels the tracks.
    #[must_use]
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"traceEvents\":[\n");
        let mut first = true;
        let mut sep = |out: &mut String| {
            if first {
                first = false;
            } else {
                out.push_str(",\n");
            }
        };
        for (pid, pname) in [
            (trace::PID_WORKERS, "workers"),
            (trace::PID_SERVERS, "data-servers"),
            (trace::PID_PROBES, "probes"),
        ] {
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
                 \"args\":{{\"name\":\"{pname}\"}}}}"
            );
        }
        for e in self.trace_events() {
            sep(&mut out);
            e.write_chrome_json(&mut out);
        }
        for p in self.probes() {
            let ts_us = (p.t_s * 1e6).round() as u64;
            for (tid, site) in p.sites.iter().enumerate() {
                sep(&mut out);
                let _ = write!(
                    out,
                    "{{\"name\":\"site{tid}\",\"cat\":\"probe\",\"ph\":\"C\",\
                     \"ts\":{ts_us},\"pid\":{},\"tid\":{tid},\"args\":{{\
                     \"queue\":{},\"busy\":{},\"parked\":{},\"dead\":{},\"files\":{}}}}}",
                    trace::PID_PROBES,
                    site.queue_depth,
                    site.busy_workers,
                    site.parked_workers,
                    site.dead_workers,
                    site.server_files,
                );
            }
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"name\":\"network\",\"cat\":\"probe\",\"ph\":\"C\",\
                 \"ts\":{ts_us},\"pid\":{},\"tid\":9999,\"args\":{{\
                 \"flows\":{},\"links_busy\":{}}}}}",
                trace::PID_PROBES,
                p.in_flight_flows,
                p.links_busy,
            );
        }
        out.push_str("\n]}\n");
        out
    }

    /// Renders the run as a compact JSONL stream: one `instrument` line
    /// per named instrument, then one `probe` line per sample.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in self.snapshot() {
            s.write_jsonl_line(&mut out);
        }
        for p in self.probes() {
            p.write_jsonl_line(&mut out);
        }
        out
    }

    /// The top `n` instruments by activity (counter value, or histogram
    /// observation count), descending — the "hottest instruments" view.
    #[must_use]
    pub fn hottest(&self, n: usize) -> Vec<InstrumentSnapshot> {
        let mut all = self.snapshot();
        all.sort_by(|a, b| b.activity().cmp(&a.activity()).then(a.name.cmp(b.name)));
        all.truncate(n);
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handles_are_inert() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        let c = t.counter("x");
        c.incr();
        c.add(5);
        let h = t.histogram("y");
        h.record(3);
        t.span_begin(Track::worker(0), "compute", 1.0);
        t.span_end(Track::worker(0), "compute", 2.0);
        t.record_probe(ProbeSample::default());
        assert!(t.snapshot().is_empty());
        assert!(t.trace_events().is_empty());
        assert!(t.probes().is_empty());
    }

    #[test]
    fn counters_dedupe_by_name() {
        let t = Telemetry::enabled();
        let a = t.counter("hits");
        let b = t.counter("hits");
        a.add(2);
        b.incr();
        let snap = t.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].name, "hits");
        assert_eq!(snap[0].activity(), 3);
    }

    #[test]
    fn chrome_trace_has_document_shape() {
        let t = Telemetry::enabled();
        t.span_begin(Track::worker(3), "compute", 0.5);
        t.span_end(Track::worker(3), "compute", 1.5);
        let json = t.to_chrome_trace();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"B\""));
        assert!(json.contains("\"ph\":\"E\""));
        assert!(json.trim_end().ends_with("]}"));
    }

    #[test]
    fn hottest_ranks_by_activity() {
        let t = Telemetry::enabled();
        t.counter("cold").incr();
        t.counter("hot").add(100);
        t.histogram("warm").record(9);
        t.histogram("warm").record(9);
        let top = t.hottest(2);
        assert_eq!(top[0].name, "hot");
        assert_eq!(top[1].name, "warm");
    }

    #[test]
    fn jsonl_lines_are_one_object_each() {
        let t = Telemetry::enabled();
        t.counter("n").add(7);
        t.record_probe(ProbeSample {
            t_s: 12.0,
            ..ProbeSample::default()
        });
        let out = t.to_jsonl();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2);
        for l in lines {
            assert!(l.starts_with('{') && l.ends_with('}'), "line: {l}");
        }
    }
}
