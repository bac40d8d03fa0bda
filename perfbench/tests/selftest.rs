//! Self-tests of the benchmark: a short timed run and a traced run of every
//! workload, checked against `BENCHMARK.json` and the output contract.
//!
//! ```text
//! cargo test --release --offline --manifest-path perfbench/Cargo.toml
//! ```

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

use mss_prof::Value;

/// Lowest acceptable share of the traced wall that the layer spans cover.
const MIN_COVERAGE: f64 = 0.98;

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

fn spec() -> Value {
    let text = std::fs::read_to_string(root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    Value::parse(&text).expect("BENCHMARK.json parses")
}

/// `name` entries of one `BENCHMARK.json` list.
fn names(spec: &Value, list: &str) -> BTreeSet<String> {
    spec.get(list)
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list} list"))
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

fn is_name(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    s.len() <= 64 && s.starts_with(|c: char| c.is_ascii_alphanumeric()) && s.chars().all(ok)
}

fn is_unit(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !s.is_empty() && s.len() <= 16 && s.chars().all(ok)
}

/// Runs the benchmark from the repository root and returns the parsed
/// environment line and result line.
fn run(workload: &str, seed: &str, trace: bool) -> (Value, Value) {
    let output = Command::new(env!("CARGO_BIN_EXE_mss-perfbench"))
        .current_dir(root())
        .args(["--workload", workload, "--seed", seed, "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("benchmark starts");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    assert!(
        output.status.success(),
        "{workload} exited with {}: {}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(
        lines.len() >= 2,
        "{workload}: expected env and result lines"
    );
    let env = Value::parse(lines[0]).expect("env line parses");
    let result = Value::parse(lines[lines.len() - 1]).expect("result line parses");
    (env, result)
}

/// Checks the result object's shape, names and correctness; returns it.
fn check(workload: &str, seed: &str, trace: bool) -> Value {
    let spec = spec();
    assert!(
        names(&spec, "workloads").contains(workload),
        "{workload} not in BENCHMARK.json"
    );
    let (env, result) = run(workload, seed, trace);
    let env = env.get("env").expect("env object");
    assert_eq!(env.get("workload").and_then(Value::as_str), Some(workload));
    for key in ["threads", "nproc", "profile", "commit", "source_digest"] {
        assert!(env.get(key).is_some(), "env line lacks {key}");
    }
    // A traced run is serial; a timed one uses every core.
    let threads = env.get("threads").and_then(Value::as_u64);
    let expected = if trace {
        Some(1)
    } else {
        env.get("nproc").and_then(Value::as_u64)
    };
    assert_eq!(threads, expected, "{workload}: recorded threads");

    let keys: BTreeSet<&str> = result
        .as_obj()
        .expect("result object")
        .keys()
        .map(String::as_str)
        .collect();
    assert_eq!(
        keys,
        BTreeSet::from(["attempted", "correct", "failed", "metrics"])
    );
    let attempted = result
        .get("attempted")
        .and_then(Value::as_u64)
        .expect("attempted");
    assert!(attempted >= 1);
    assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
    assert!(matches!(result.get("correct"), Some(Value::Bool(true))));

    let metrics = result
        .get("metrics")
        .and_then(Value::as_obj)
        .expect("metrics");
    let printed: BTreeSet<String> = metrics.keys().cloned().collect();
    let list = if trace { "per_layer" } else { "end_to_end" };
    assert_eq!(
        printed,
        names(&spec, list),
        "{workload} metrics vs BENCHMARK.json {list}"
    );
    let units: Vec<(String, String)> = spec
        .get(list)
        .and_then(Value::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Value::as_str).expect("field").to_string();
            (field("name"), field("unit"))
        })
        .collect();
    for (name, unit) in units {
        assert!(is_name(&name), "bad metric name {name:?}");
        assert!(is_unit(&unit), "bad unit {unit:?}");
        let m = &metrics[&name];
        assert_eq!(m.get("unit").and_then(Value::as_str), Some(unit.as_str()));
        let v = m
            .get("value")
            .and_then(Value::as_f64)
            .expect("numeric value");
        assert!(v.is_finite() && v >= 0.0, "{name} = {v}");
    }
    result
}

fn metric(result: &Value, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("metric {name}"))
}

#[test]
fn workload_names_follow_the_grammar() {
    for w in names(&spec(), "workloads") {
        assert!(is_name(&w), "bad workload name {w:?}");
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &["--workload", "nope", "--seed", "1", "--seconds", "1"][..],
        &["--workload", "table1_mc", "--seed", "x", "--seconds", "1"][..],
        &["--workload", "table1_mc", "--seed", "1"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_mss-perfbench"))
            .args(args)
            .output()
            .expect("benchmark starts");
        assert!(!out.status.success(), "{args:?} should fail");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}

#[test]
fn fig12_grid_reproduces_the_committed_figure() {
    let r = check("fig12_grid", "0x000F1612", false);
    assert_eq!(metric(&r, "ops_ok_frac"), 1.0);
    assert!(metric(&r, "wall_s") > 0.0 && metric(&r, "setup_s") > 0.0);
}

#[test]
fn seed_sweep_matches_the_naive_reference() {
    let r = check("seed_sweep", "17", false);
    assert_eq!(metric(&r, "ops_ok_frac"), 1.0);
}

#[test]
fn table1_mc_reproduces_the_committed_table() {
    let r = check("table1_mc", "0x007AB1E1", false);
    assert_eq!(metric(&r, "ops_ok_frac"), 1.0);
}

#[test]
fn traced_fig12_grid_is_mostly_gemsim() {
    let r = check("fig12_grid", "3", true);
    assert!(metric(&r, "trace.coverage") >= MIN_COVERAGE);
    assert!(metric(&r, "gemsim.run_s") > 0.5 * metric(&r, "trace.wall_s"));
    // 36 STT runs, then the SOT rerun hits the 36 shared pairs.
    assert_eq!(metric(&r, "gemsim.runs"), 63.0);
    assert_eq!(metric(&r, "pipe.simulate_misses"), 63.0);
    // Each kernel's streams are drawn once per platform: 7 times over.
    assert_eq!(metric(&r, "gemsim.stream_reuse"), 7.0);
}

#[test]
fn traced_seed_sweep_shares_nothing() {
    let r = check("seed_sweep", "5", true);
    assert!(metric(&r, "trace.coverage") >= MIN_COVERAGE);
    assert_eq!(metric(&r, "pipe.simulate_hit_ratio"), 0.0);
    assert_eq!(metric(&r, "gemsim.stream_reuse"), 1.0);
}

#[test]
fn traced_table1_mc_is_the_monte_carlo() {
    let r = check("table1_mc", "9", true);
    assert!(metric(&r, "trace.coverage") >= MIN_COVERAGE);
    assert!(metric(&r, "vaet.mc_s") > 0.5 * metric(&r, "trace.wall_s"));
    assert_eq!(metric(&r, "gemsim.run_s"), 0.0);
}
