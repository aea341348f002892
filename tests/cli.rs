//! Smoke tests of the `gridsched` CLI binary (built by Cargo and exposed
//! via `CARGO_BIN_EXE_gridsched`).

use std::path::PathBuf;
use std::process::Command;

fn gridsched(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_gridsched"))
        .args(args)
        .output()
        .expect("spawn gridsched")
}

/// A per-test scratch directory, unique across concurrent test *processes*
/// (pid) and across tests within one process (tag) — a fixed path here
/// makes parallel `cargo test` runs clobber each other's files.
struct TestDir(PathBuf);

impl TestDir {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("gridsched-cli-test-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create test dir");
        TestDir(dir)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TestDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn strategies_lists_all_algorithms() {
    let out = gridsched(&["strategies"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    for name in [
        "storage-affinity",
        "overlap",
        "rest",
        "combined",
        "rest.2",
        "combined.2",
        "workqueue",
        "xsufferage",
    ] {
        assert!(stdout.lines().any(|l| l == name), "missing {name}");
    }
}

#[test]
fn workload_stats_and_trace() {
    let dir = TestDir::new("workload-trace");
    let trace = dir.path("wl.trace");
    let trace_str = trace.to_str().expect("utf8 path");

    let out = gridsched(&["workload", "--tasks", "150", "--out", trace_str]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.contains("tasks              : 150"));
    assert!(trace.exists());

    // Simulate from the written trace, CSV output.
    let out = gridsched(&[
        "simulate",
        "--trace",
        trace_str,
        "--sites",
        "2",
        "--topology-seeds",
        "0",
        "--csv",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    let mut lines = stdout.lines();
    let header = lines.next().expect("csv header");
    assert!(header.starts_with("strategy,sites,workers"));
    let row = lines.next().expect("csv row");
    assert!(row.starts_with("rest.2,2,1,"), "row: {row}");
}

#[test]
fn simulate_with_fault_injection() {
    let dir = TestDir::new("faults");
    let trace = dir.path("wl.trace");
    let trace_str = trace.to_str().expect("utf8 path");
    let out = gridsched(&["workload", "--tasks", "120", "--out", trace_str]);
    assert!(out.status.success());

    let fault_trace = dir.path("faults.trace");
    std::fs::write(&fault_trace, "600 server-fail 1\n5400 server-recover 1\n")
        .expect("write fault trace");
    let args = [
        "simulate",
        "--trace",
        trace_str,
        "--sites",
        "2",
        "--topology-seeds",
        "0",
        "--strategy",
        "rest.2",
        "--mtbf",
        "3600",
        "--mttr",
        "600",
        "--fault-trace",
        fault_trace.to_str().expect("utf8 path"),
    ];
    let out = gridsched(&args);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout.clone()).expect("utf8");
    assert!(
        stdout.contains("faults            : worker mtbf=3600s"),
        "{stdout}"
    );
    assert!(stdout.contains("re-execution"), "{stdout}");
    assert!(stdout.contains("availability"), "{stdout}");

    // Same invocation again: byte-identical output (determinism).
    let again = gridsched(&args);
    assert_eq!(out.stdout, again.stdout, "fault runs must be deterministic");
}

#[test]
fn simulate_rejects_bad_fault_flags() {
    let out = gridsched(&["simulate", "--mtbf", "-5"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).expect("utf8");
    assert!(stderr.contains("must be positive"), "stderr: {stderr}");

    // An MTTR without its MTBF would otherwise be silently ignored.
    let out = gridsched(&["simulate", "--mttr", "60"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).expect("utf8");
    assert!(
        stderr.contains("--mttr requires --mtbf"),
        "stderr: {stderr}"
    );

    let out = gridsched(&["simulate", "--server-mttr", "60"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).expect("utf8");
    assert!(
        stderr.contains("--server-mttr requires --server-mtbf"),
        "stderr: {stderr}"
    );

    // Repair-shape flags depend on their churn process too.
    let out = gridsched(&["simulate", "--mttr-shape", "0.5"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).expect("utf8");
    assert!(
        stderr.contains("--mttr-shape requires --mtbf"),
        "stderr: {stderr}"
    );

    let out = gridsched(&["simulate", "--server-mttr-shape", "0.5"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).expect("utf8");
    assert!(
        stderr.contains("--server-mttr-shape requires --server-mtbf"),
        "stderr: {stderr}"
    );
}

#[test]
fn simulate_rejects_unknown_eval_mode() {
    let out = gridsched(&["simulate", "--tasks", "20", "--eval-mode", "indexed"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).expect("utf8");
    assert!(stderr.contains("incremental|naive"), "stderr: {stderr}");
}

#[test]
fn simulate_rejects_bad_checkpoint_flags() {
    // Interval/size without a policy would otherwise be silently ignored.
    let out = gridsched(&["simulate", "--checkpoint-interval", "600"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).expect("utf8");
    assert!(
        stderr.contains("--checkpoint-interval requires --checkpoint-policy"),
        "stderr: {stderr}"
    );

    let out = gridsched(&["simulate", "--checkpoint-size", "50"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).expect("utf8");
    assert!(
        stderr.contains("--checkpoint-size requires --checkpoint-policy"),
        "stderr: {stderr}"
    );

    // The fixed policy needs its interval.
    let out = gridsched(&["simulate", "--checkpoint-policy", "fixed"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).expect("utf8");
    assert!(
        stderr.contains("requires --checkpoint-interval"),
        "stderr: {stderr}"
    );

    // Young/Daly derives its interval from the fault model.
    let out = gridsched(&["simulate", "--checkpoint-policy", "young-daly"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8(out.stderr).expect("utf8");
    assert!(
        stderr.contains("--checkpoint-policy: young-daly checkpointing needs a worker MTBF"),
        "stderr: {stderr}"
    );

    let out = gridsched(&["simulate", "--checkpoint-policy", "sometimes"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).expect("utf8");
    assert!(
        stderr.contains("unknown checkpoint policy"),
        "stderr: {stderr}"
    );

    let out = gridsched(&[
        "simulate",
        "--checkpoint-policy",
        "fixed",
        "--checkpoint-interval",
        "-60",
    ]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).expect("utf8");
    assert!(stderr.contains("must be positive"), "stderr: {stderr}");
}

#[test]
fn simulate_with_checkpointing_reports_and_is_deterministic() {
    let dir = TestDir::new("checkpoint");
    let trace = dir.path("wl.trace");
    let trace_str = trace.to_str().expect("utf8 path");
    let out = gridsched(&["workload", "--tasks", "120", "--out", trace_str]);
    assert!(out.status.success());

    let args = [
        "simulate",
        "--trace",
        trace_str,
        "--sites",
        "2",
        "--topology-seeds",
        "0",
        "--strategy",
        "rest.2",
        "--mtbf",
        "3600",
        "--mttr",
        "600",
        "--mttr-shape",
        "0.7",
        "--checkpoint-policy",
        "young-daly",
        "--checkpoint-size",
        "50",
    ];
    let out = gridsched(&args);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout.clone()).expect("utf8");
    assert!(
        stdout.contains("repair-shape=0.70"),
        "fault summary should show the Weibull shape: {stdout}"
    );
    assert!(
        stdout.contains("checkpointing     : young-daly image=50MB"),
        "{stdout}"
    );
    assert!(stdout.contains("checkpoints       :"), "{stdout}");
    assert!(stdout.contains("compute saved"), "{stdout}");

    // Same invocation again: byte-identical output (determinism).
    let again = gridsched(&args);
    assert_eq!(
        out.stdout, again.stdout,
        "checkpointed runs must be deterministic"
    );
}

#[test]
fn simulate_with_replica_throttle() {
    let dir = TestDir::new("throttle");
    let trace = dir.path("wl.trace");
    let trace_str = trace.to_str().expect("utf8 path");
    let out = gridsched(&["workload", "--tasks", "120", "--out", trace_str]);
    assert!(out.status.success());

    let args = [
        "simulate",
        "--trace",
        trace_str,
        "--sites",
        "2",
        "--topology-seeds",
        "0",
        "--strategy",
        "storage-affinity",
        "--replica-cap",
        "2",
        "--site-replica-budget",
        "8",
    ];
    let out = gridsched(&args);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout.clone()).expect("utf8");
    assert!(
        stdout.contains("replica throttle  : cap=2 site-budget=8"),
        "{stdout}"
    );
    // Throttled runs stay deterministic.
    let again = gridsched(&args);
    assert_eq!(out.stdout, again.stdout);
}

#[test]
fn simulate_rejects_throttle_for_worker_centric_strategies() {
    let out = gridsched(&[
        "simulate",
        "--strategy",
        "rest.2",
        "--replica-cap",
        "2",
        "--tasks",
        "50",
    ]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8(out.stderr).expect("utf8");
    assert!(
        stderr.contains("--replica-cap: the replica throttle only applies to storage-affinity"),
        "stderr: {stderr}"
    );

    let out = gridsched(&[
        "simulate",
        "--strategy",
        "storage-affinity",
        "--replica-cap",
        "0",
        "--tasks",
        "50",
    ]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).expect("utf8");
    assert!(stderr.contains("must be >= 1"), "stderr: {stderr}");
}

#[test]
fn simulate_writes_trace_and_metrics_outputs() {
    let dir = TestDir::new("telemetry");
    let trace_json = dir.path("run.trace.json");
    let metrics = dir.path("run.metrics.jsonl");
    let args = [
        "simulate",
        "--tasks",
        "120",
        "--sites",
        "2",
        "--topology-seeds",
        "0",
        "--trace-out",
        trace_json.to_str().expect("utf8 path"),
        "--metrics-out",
        metrics.to_str().expect("utf8 path"),
        "--probe-interval",
        "300",
    ];
    let out = gridsched(&args);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.contains("trace written"), "{stdout}");
    assert!(stdout.contains("metrics written"), "{stdout}");

    // Chrome Trace Event Format shape: one traceEvents array with B/E
    // duration pairs and the process-name metadata Perfetto keys on.
    let trace = std::fs::read_to_string(&trace_json).expect("trace file written");
    assert!(
        trace.starts_with("{\"traceEvents\":["),
        "trace: {trace:.80}"
    );
    assert!(trace.contains("\"ph\":\"B\""));
    assert!(trace.contains("\"ph\":\"E\""));
    assert!(trace.contains("\"process_name\""));
    assert!(trace.trim_end().ends_with("]}"));

    // JSONL: instrument lines then probe lines, one object per line.
    let metrics_text = std::fs::read_to_string(&metrics).expect("metrics file written");
    assert!(metrics_text.contains("\"type\":\"instrument\""));
    assert!(metrics_text.contains("\"type\":\"probe\""));
    for line in metrics_text.lines() {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "not one JSON object per line: {line}"
        );
    }
}

#[test]
fn simulate_suffixes_telemetry_outputs_per_replicate() {
    let dir = TestDir::new("telemetry-multi");
    let metrics = dir.path("multi.metrics.jsonl");
    let metrics_str = metrics.to_str().expect("utf8 path");
    let out = gridsched(&[
        "simulate",
        "--tasks",
        "120",
        "--sites",
        "2",
        "--topology-seeds",
        "0,1",
        "--metrics-out",
        metrics_str,
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(!metrics.exists(), "multi-seed runs write per-seed files");
    assert!(dir.path("multi.metrics.jsonl.seed0").exists());
    assert!(dir.path("multi.metrics.jsonl.seed1").exists());
}

#[test]
fn simulate_rejects_bad_telemetry_flags() {
    let out = gridsched(&["simulate", "--probe-interval", "0"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).expect("utf8");
    assert!(stderr.contains("must be positive"), "stderr: {stderr}");

    let out = gridsched(&["simulate", "--probe-interval", "-60"]);
    assert!(!out.status.success());

    let out = gridsched(&[
        "simulate",
        "--trace-out",
        "/no/such/directory/anywhere/run.json",
    ]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).expect("utf8");
    assert!(stderr.contains("parent"), "stderr: {stderr}");

    let out = gridsched(&[
        "simulate",
        "--metrics-out",
        "/no/such/directory/anywhere/run.jsonl",
    ]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).expect("utf8");
    assert!(stderr.contains("parent"), "stderr: {stderr}");
}

#[test]
fn analyze_blames_a_recorded_trace() {
    let dir = TestDir::new("analyze");
    let trace_json = dir.path("run.trace.json");
    let trace_str = trace_json.to_str().expect("utf8 path");
    let out = gridsched(&[
        "simulate",
        "--tasks",
        "120",
        "--sites",
        "2",
        "--topology-seeds",
        "0",
        "--trace-out",
        trace_str,
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let blame = dir.path("blame.json");
    let out = gridsched(&[
        "analyze",
        "--trace",
        trace_str,
        "--blame-out",
        blame.to_str().expect("utf8 path"),
        "--top",
        "3",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.contains("run forensics: makespan"), "{stdout}");
    assert!(stdout.contains("critical path:"), "{stdout}");
    assert!(stdout.contains("top 3 tasks by lifetime"), "{stdout}");

    let json = std::fs::read_to_string(&blame).expect("blame file written");
    assert!(json.contains("\"type\":\"blame-report\""), "{json:.120}");
    assert!(json.contains("\"critical_path\""), "{json:.120}");
    assert!(json.contains("\"task_count\":120"), "{json:.120}");

    // analyze without its input is a usage error, not a panic.
    let out = gridsched(&["analyze"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).expect("utf8");
    assert!(stderr.contains("--trace"), "stderr: {stderr}");
}

#[test]
fn diff_digests_exit_codes_and_seed_suffix() {
    let dir = TestDir::new("digests");
    let a = dir.path("a.jsonl");
    let b = dir.path("b.jsonl");
    let c = dir.path("c.jsonl");
    let run = |seed: &str, path: &std::path::Path| {
        let out = gridsched(&[
            "simulate",
            "--tasks",
            "120",
            "--sites",
            "2",
            "--topology-seeds",
            "0",
            "--seed",
            seed,
            "--digest-out",
            path.to_str().expect("utf8 path"),
            "--digest-window",
            "600",
        ]);
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8(out.stdout).expect("utf8");
        assert!(stdout.contains("digest written"), "{stdout}");
    };
    run("1", &a);
    run("1", &b);
    run("2", &c);

    // Identical runs: exit 0 and a final-hash report.
    let out = gridsched(&[
        "diff-digests",
        a.to_str().expect("utf8"),
        b.to_str().expect("utf8"),
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.contains("digests identical"), "{stdout}");

    // Seed change: exit 3 with the first divergent window + ordinals.
    let out = gridsched(&[
        "diff-digests",
        a.to_str().expect("utf8"),
        c.to_str().expect("utf8"),
    ]);
    assert_eq!(out.status.code(), Some(3));
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.contains("digests diverge at window"), "{stdout}");
    assert!(stdout.contains("event ordinals"), "{stdout}");

    // Wrong arity is a usage failure (exit 1 with a message), not 3.
    let out = gridsched(&["diff-digests", a.to_str().expect("utf8")]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8(out.stderr).expect("utf8");
    assert!(stderr.contains("exactly two"), "stderr: {stderr}");

    // Multi-replicate runs suffix the digest per seed like the other
    // telemetry outputs.
    let multi = dir.path("multi.jsonl");
    let out = gridsched(&[
        "simulate",
        "--tasks",
        "120",
        "--sites",
        "2",
        "--topology-seeds",
        "0,1",
        "--digest-out",
        multi.to_str().expect("utf8 path"),
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(!multi.exists(), "multi-seed runs write per-seed digests");
    assert!(dir.path("multi.jsonl.seed0").exists());
    assert!(dir.path("multi.jsonl.seed1").exists());
}

#[test]
fn simulate_rejects_bad_digest_and_serve_flags() {
    // Window without its output file would be silently ignored.
    let out = gridsched(&["simulate", "--digest-window", "600"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).expect("utf8");
    assert!(
        stderr.contains("--digest-window requires --digest-out"),
        "stderr: {stderr}"
    );

    let out = gridsched(&[
        "simulate",
        "--digest-out",
        "/tmp/d.jsonl",
        "--digest-window",
        "0",
    ]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).expect("utf8");
    assert!(stderr.contains("must be positive"), "stderr: {stderr}");

    let out = gridsched(&[
        "simulate",
        "--digest-out",
        "/no/such/directory/anywhere/d.jsonl",
    ]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).expect("utf8");
    assert!(stderr.contains("parent"), "stderr: {stderr}");

    // Serve flags: bad address, linger without server, multi-replicate.
    let out = gridsched(&["simulate", "--serve-metrics", "not-an-addr"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).expect("utf8");
    assert!(stderr.contains("--serve-metrics"), "stderr: {stderr}");

    let out = gridsched(&["simulate", "--serve-linger", "5"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).expect("utf8");
    assert!(
        stderr.contains("--serve-linger requires --serve-metrics"),
        "stderr: {stderr}"
    );

    let out = gridsched(&[
        "simulate",
        "--serve-metrics",
        "127.0.0.1:0",
        "--topology-seeds",
        "0,1",
    ]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).expect("utf8");
    assert!(stderr.contains("single replicate"), "stderr: {stderr}");
}

#[test]
fn simulate_reports_spread_across_replicates() {
    let out = gridsched(&[
        "simulate",
        "--tasks",
        "120",
        "--sites",
        "2",
        "--topology-seeds",
        "0,1",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(
        stdout.contains("makespan spread   :") && stdout.contains("across 2 replicates"),
        "{stdout}"
    );

    // Single replicate: no spread line (it would be vacuous).
    let out = gridsched(&[
        "simulate",
        "--tasks",
        "120",
        "--sites",
        "2",
        "--topology-seeds",
        "0",
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(!stdout.contains("makespan spread"), "{stdout}");
}

#[test]
fn simulate_with_link_faults_and_transfer_guard() {
    let dir = TestDir::new("netfaults");
    let trace = dir.path("wl.trace");
    let trace_str = trace.to_str().expect("utf8 path");
    let out = gridsched(&["workload", "--tasks", "120", "--out", trace_str]);
    assert!(out.status.success());

    let args = [
        "simulate",
        "--trace",
        trace_str,
        "--sites",
        "2",
        "--topology-seeds",
        "0",
        "--strategy",
        "rest.2",
        "--link-mtbf",
        "4000",
        "--link-mttr",
        "600",
        "--transfer-timeout",
        "3",
        "--transfer-retries",
        "4",
        "--retry-backoff",
        "30",
    ];
    let out = gridsched(&args);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout.clone()).expect("utf8");
    assert!(
        stdout.contains("faults            : link mtbf=4000s mttr=600s"),
        "{stdout}"
    );
    assert!(stdout.contains("link faults       :"), "{stdout}");
    assert!(
        stdout.contains("transfer guard    : timeout=3.0x retries=4 backoff=30s"),
        "{stdout}"
    );
    assert!(stdout.contains("transfer recovery :"), "{stdout}");

    // Same invocation again: byte-identical output (determinism).
    let again = gridsched(&args);
    assert_eq!(
        out.stdout, again.stdout,
        "link-fault runs must be deterministic"
    );
}

#[test]
fn simulate_with_scripted_partition_heals_and_completes() {
    let dir = TestDir::new("partition");
    let fault_trace = dir.path("partition.trace");
    std::fs::write(&fault_trace, "600 partition 0\n4200 partition-heal 0\n")
        .expect("write fault trace");
    let out = gridsched(&[
        "simulate",
        "--tasks",
        "120",
        "--sites",
        "2",
        "--topology-seeds",
        "0",
        "--fault-trace",
        fault_trace.to_str().expect("utf8 path"),
        "--transfer-timeout",
        "2",
        "--transfer-retries",
        "6",
        "--retry-backoff",
        "60",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.contains("makespan"), "{stdout}");
    assert!(
        stdout.contains("link faults       : 1 outage windows"),
        "{stdout}"
    );
}

#[test]
fn simulate_rejects_bad_network_flags() {
    // Dependent flags without the flag that gives them meaning.
    let out = gridsched(&["simulate", "--link-mttr", "600"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).expect("utf8");
    assert!(
        stderr.contains("--link-mttr requires --link-mtbf"),
        "stderr: {stderr}"
    );

    let out = gridsched(&["simulate", "--link-degrade-factor", "0.5"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).expect("utf8");
    assert!(
        stderr.contains("--link-degrade-factor requires --link-mtbf"),
        "stderr: {stderr}"
    );

    let out = gridsched(&["simulate", "--transfer-retries", "3"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).expect("utf8");
    assert!(
        stderr.contains("--transfer-retries requires --transfer-timeout"),
        "stderr: {stderr}"
    );

    let out = gridsched(&["simulate", "--retry-backoff", "30"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).expect("utf8");
    assert!(
        stderr.contains("--retry-backoff requires --transfer-timeout"),
        "stderr: {stderr}"
    );

    // Value validation.
    let out = gridsched(&["simulate", "--link-mtbf", "-5"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).expect("utf8");
    assert!(stderr.contains("must be positive"), "stderr: {stderr}");

    let out = gridsched(&[
        "simulate",
        "--link-mtbf",
        "4000",
        "--link-degrade-factor",
        "1.5",
    ]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).expect("utf8");
    assert!(stderr.contains("must be in (0, 1)"), "stderr: {stderr}");

    let out = gridsched(&["simulate", "--transfer-timeout", "1"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8(out.stderr).expect("utf8");
    assert!(
        stderr.contains("--transfer-timeout: transfer timeout multiple must be > 1"),
        "stderr: {stderr}"
    );

    let out = gridsched(&[
        "simulate",
        "--transfer-timeout",
        "3",
        "--retry-backoff",
        "0",
    ]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).expect("utf8");
    assert!(stderr.contains("must be positive"), "stderr: {stderr}");

    // A scripted link event whose index no replicate's topology has is
    // a clean CLI error, not a mid-run engine assert.
    let dir = TestDir::new("bad-link-index");
    let fault_trace = dir.path("bad-link.trace");
    std::fs::write(&fault_trace, "100 link-down 999999\n").expect("write fault trace");
    let out = gridsched(&[
        "simulate",
        "--tasks",
        "120",
        "--sites",
        "2",
        "--topology-seeds",
        "0",
        "--fault-trace",
        fault_trace.to_str().expect("utf8 path"),
    ]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).expect("utf8");
    assert!(
        stderr.contains("fault trace references link 999999"),
        "stderr: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}

#[test]
fn grid_size_flags_out_of_range_are_clean_errors() {
    // (arguments, flag the error must name). `SimConfig::validate` or the
    // CLI's own count parsing rejects each bound before anything runs.
    let cases: [(&[&str], &str); 10] = [
        (&["simulate", "--tasks", "50", "--sites", "0"], "--sites"),
        (&["topology", "--sites", "0"], "--sites"),
        (&["simulate", "--tasks", "50", "--sites", "500"], "--sites"),
        (
            &["simulate", "--tasks", "50", "--workers", "0"],
            "--workers",
        ),
        (
            &["simulate", "--tasks", "50", "--capacity", "0"],
            "--capacity",
        ),
        (
            &["simulate", "--tasks", "50", "--choose-n", "0"],
            "--choose-n",
        ),
        (&["simulate", "--tasks", "0"], "--tasks"),
        (&["workload", "--tasks", "0"], "--tasks"),
        (&["workload", "--file-size-mb", "0"], "--file-size-mb"),
        (&["workload", "--file-size-mb", "-1"], "--file-size-mb"),
    ];
    for (args, flag) in cases {
        let out = gridsched(args);
        let stderr = String::from_utf8(out.stderr).expect("utf8");
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr
                .lines()
                .any(|l| l.starts_with("error:") && l.contains(flag)),
            "{args:?}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

/// Non-finite values the CLI once passed to panicking library builders:
/// each must now be a clean `error:` line naming the flag (the library's
/// `SimConfig::validate` holds the rule), never a panic.
#[test]
fn non_finite_fault_and_checkpoint_values_are_clean_errors() {
    let dir = TestDir::new("non-finite");
    let wl = dir.path("wl.trace");
    let wl_arg = wl.to_str().expect("utf8 path");
    let out = gridsched(&["workload", "--tasks", "40", "--out", wl_arg]);
    assert!(out.status.success());
    let base = ["simulate", "--trace", wl_arg, "--sites", "2"];
    let cases: [(&[&str], &str); 10] = [
        (&["--mtbf", "inf"], "--mtbf"),
        (&["--mtbf", "NaN"], "--mtbf"),
        (&["--mtbf", "3600", "--mttr", "inf"], "--mttr"),
        (&["--server-mtbf", "inf"], "--server-mtbf"),
        (&["--link-mtbf", "inf"], "--link-mtbf"),
        (&["--mtbf", "3600", "--mttr-shape", "inf"], "--mttr-shape"),
        (&["--mtbf", "3600", "--mttr-shape", "NaN"], "--mttr-shape"),
        (
            &[
                "--checkpoint-policy",
                "fixed",
                "--checkpoint-interval",
                "inf",
            ],
            "--checkpoint-interval",
        ),
        (
            &[
                "--checkpoint-policy",
                "fixed",
                "--checkpoint-interval",
                "NaN",
            ],
            "--checkpoint-interval",
        ),
        (
            &[
                "--checkpoint-policy",
                "young-daly",
                "--mtbf",
                "3600",
                "--checkpoint-size",
                "inf",
            ],
            "--checkpoint-size",
        ),
    ];
    for (extra, flag) in cases {
        let args: Vec<&str> = base.iter().chain(extra).copied().collect();
        let out = gridsched(&args);
        let stderr = String::from_utf8(out.stderr).expect("utf8");
        assert_eq!(out.status.code(), Some(1), "{extra:?}: {stderr}");
        assert!(
            stderr
                .lines()
                .any(|l| l.starts_with(&format!("error: {flag}:"))),
            "{extra:?}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{extra:?}: {stderr}");
    }
}

/// A tiny positive sampling period used to fire once per period between
/// every pair of events, so the run never ended. Both periods now have a
/// 1 s floor in `SimConfig::validate`, checked before anything runs; the
/// child is killed after a deadline so a lost floor fails instead of
/// hanging the suite.
#[test]
fn tiny_sampling_periods_are_clean_errors() {
    use std::process::Stdio;
    use std::time::{Duration, Instant};

    let dir = TestDir::new("tiny-cadence");
    let wl = dir.path("wl.trace");
    let wl_arg = wl.to_str().expect("utf8 path");
    let out = gridsched(&["workload", "--tasks", "40", "--out", wl_arg]);
    assert!(out.status.success());
    let metrics = dir.path("m.jsonl");
    let metrics_arg = metrics.to_str().expect("utf8 path");
    let base = [
        "simulate",
        "--trace",
        wl_arg,
        "--sites",
        "2",
        "--topology-seeds",
        "0",
    ];
    let cases: [(&[&str], &str); 3] = [
        (
            &["--adaptive", "placement", "--control-tick", "1e-300"],
            "--control-tick",
        ),
        (
            &["--metrics-out", metrics_arg, "--probe-interval", "1e-300"],
            "--probe-interval",
        ),
        (
            &["--metrics-out", metrics_arg, "--probe-interval", "0.5"],
            "--probe-interval",
        ),
    ];
    for (extra, flag) in cases {
        let mut child = Command::new(env!("CARGO_BIN_EXE_gridsched"))
            .args(base.iter().chain(extra))
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn gridsched");
        let deadline = Instant::now() + Duration::from_secs(60);
        while child.try_wait().expect("poll gridsched").is_none() {
            if Instant::now() > deadline {
                child.kill().expect("kill gridsched");
                panic!("{extra:?} still running after 60 s");
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        let out = child.wait_with_output().expect("collect gridsched");
        let stderr = String::from_utf8(out.stderr).expect("utf8");
        assert_eq!(out.status.code(), Some(1), "{extra:?}: {stderr}");
        assert!(
            stderr
                .lines()
                .any(|l| l.starts_with(&format!("error: {flag}:")) && l.contains("at least 1 s")),
            "{extra:?}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{extra:?}: {stderr}");
    }
}

/// `ChooseTask(n)` only exists in the worker-centric strategies, so
/// `--choose-n` with any other strategy is an error, not silently ignored.
#[test]
fn choose_n_requires_a_worker_centric_strategy() {
    for strategy in ["storage-affinity", "workqueue", "xsufferage"] {
        let out = gridsched(&[
            "simulate",
            "--tasks",
            "20",
            "--strategy",
            strategy,
            "--choose-n",
            "7",
        ]);
        let stderr = String::from_utf8(out.stderr).expect("utf8");
        assert_eq!(out.status.code(), Some(1), "{strategy}: {stderr}");
        assert!(
            stderr.contains("error: --choose-n: ChooseTask(n) only applies to worker-centric"),
            "{strategy}: {stderr}"
        );
    }
    let out = gridsched(&[
        "simulate",
        "--tasks",
        "20",
        "--sites",
        "2",
        "--topology-seeds",
        "0",
        "--strategy",
        "rest",
        "--choose-n",
        "3",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn simulate_rejects_bad_strategy() {
    let out = gridsched(&["simulate", "--strategy", "magic"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).expect("utf8");
    assert!(stderr.contains("unknown strategy"), "stderr: {stderr}");
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = gridsched(&["frobnicate"]);
    assert!(!out.status.success());
}

#[test]
fn topology_summary() {
    let out = gridsched(&["topology", "--seed", "2"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.contains("sites     : 90"));
    assert!(stdout.contains("bottleneck"));
}
