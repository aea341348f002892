//! Smoke tests of the `claims` binary: name selection, usage errors and the
//! `claims.json` it writes under `--out`.

use std::process::{Command, Output};

use gridsched_sim::telemetry::json::{parse, JsonValue};

fn claims(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_claims"))
        .args(args)
        .output()
        .expect("spawn claims")
}

#[test]
fn unknown_name_and_flag_are_usage_errors() {
    for args in [&["no_such_claim"][..], &["--frobnicate"]] {
        let out = claims(args);
        let stderr = String::from_utf8(out.stderr).expect("utf8");
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with("error:"), "{args:?}: {stderr}");
        assert!(
            stderr.contains("fig1_3_file_cdf"),
            "lists the names: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?}: nothing ran");
    }
}

#[test]
fn out_dir_gets_the_csv_and_claims_json() {
    let dir = std::env::temp_dir().join(format!("gridsched-claims-test-{}", std::process::id()));
    let out = claims(&[
        "--quick",
        "--seeds",
        "0",
        "--check",
        "--out",
        dir.to_str().expect("utf8 path"),
        "table2_workload",
    ]);
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    let json = std::fs::read_to_string(dir.join("claims.json"));
    let csv = std::fs::read_to_string(dir.join("table2_workload.csv"));
    let _ = std::fs::remove_dir_all(&dir);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.starts_with("== Table 2: characteristics of Coadd =="));
    assert!(stdout.ends_with("claims.json\n"), "{stdout}");
    assert_eq!(csv.expect("csv written").lines().count(), 5);

    let doc = parse(&json.expect("claims.json written")).expect("valid JSON");
    let entries = doc
        .get("claims")
        .and_then(JsonValue::as_array)
        .expect("list");
    assert_eq!(entries.len(), 1, "only the named claim ran");
    let entry = &entries[0];
    assert_eq!(
        entry.get("name").and_then(JsonValue::as_str),
        Some("table2_workload")
    );
    assert_eq!(entry.get("quick"), Some(&JsonValue::Bool(true)));
    let seeds = entry
        .get("seeds")
        .and_then(JsonValue::as_array)
        .expect("seeds");
    assert_eq!(
        seeds.iter().map(|s| s.as_u64()).collect::<Vec<_>>(),
        [Some(0)]
    );
    let tables = entry
        .get("tables")
        .and_then(JsonValue::as_array)
        .expect("tables");
    assert_eq!(tables.len(), 1);
    let rows = tables[0]
        .get("rows")
        .and_then(JsonValue::as_array)
        .expect("rows");
    assert_eq!(rows.len(), 4);
    let first = rows[0].as_array().expect("row");
    assert_eq!(first[0].as_str(), Some("total number of files"));
    assert_eq!(first[1].as_str(), Some("n/a (quick)"));
    let checks = entry
        .get("checks")
        .and_then(JsonValue::as_array)
        .expect("checks");
    assert_eq!(checks.len(), 2);
    for check in checks {
        assert!(check.get("label").and_then(JsonValue::as_str).is_some());
        assert_eq!(check.get("pass"), Some(&JsonValue::Bool(true)));
    }
}

#[test]
fn quick_perf_scale_passes_its_checks_with_one_row_per_run_key() {
    let dir = std::env::temp_dir().join(format!("gridsched-scale-test-{}", std::process::id()));
    let out = claims(&[
        "--quick",
        "--check",
        "--out",
        dir.to_str().expect("utf8 path"),
        "perf_scale",
    ]);
    let json = std::fs::read_to_string(dir.join("claims.json"));
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let doc = parse(&json.expect("claims.json written")).expect("valid JSON");
    let entries = doc
        .get("claims")
        .and_then(JsonValue::as_array)
        .expect("list");
    let entry = entries
        .iter()
        .find(|e| e.get("name").and_then(JsonValue::as_str) == Some("perf_scale"))
        .expect("the perf_scale entry");
    let checks = entry
        .get("checks")
        .and_then(JsonValue::as_array)
        .expect("checks");
    assert!(!checks.is_empty());
    for check in checks {
        assert_eq!(check.get("pass"), Some(&JsonValue::Bool(true)), "{check:?}");
    }

    let runs = &entry
        .get("tables")
        .and_then(JsonValue::as_array)
        .expect("tables")[0];
    let headers: Vec<&str> = runs
        .get("headers")
        .and_then(JsonValue::as_array)
        .expect("headers")
        .iter()
        .map(|h| h.as_str().expect("header"))
        .collect();
    let key_columns: Vec<usize> = ["workers", "sites", "strategy", "mode", "throttle"]
        .iter()
        .map(|k| headers.iter().position(|h| h == k).expect("key column"))
        .collect();
    let rows = runs
        .get("rows")
        .and_then(JsonValue::as_array)
        .expect("rows");
    let keys: std::collections::HashSet<Vec<&str>> = rows
        .iter()
        .map(|row| {
            let cells = row.as_array().expect("row");
            key_columns
                .iter()
                .map(|&i| cells[i].as_str().expect("cell"))
                .collect()
        })
        .collect();
    assert_eq!(keys.len(), rows.len(), "one row per run key");
    assert!(rows.len() >= 20, "{} rows", rows.len());
}
