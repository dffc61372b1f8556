//! Runs every workload of `BENCHMARK.json` at smoke size, untraced and
//! traced, and holds the harness to the contract: the result line has
//! exactly the agreed keys, every named metric is printed and nothing else,
//! names and counts stay inside the limits, and span parents in the trace
//! file resolve.

mod json;

use json::Value;
use std::path::PathBuf;
use std::process::Command;

const HARNESS: &str = env!("CARGO_BIN_EXE_rsmi-benchmark");

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke-out")
}

/// Runs one workload and returns the parsed header and result lines.
fn run(workload: &str, traced: bool) -> (Value, Value) {
    let output = Command::new(HARNESS)
        .args([
            "--workload",
            workload,
            "--seed",
            "42",
            "--seconds",
            "0.2",
            "--smoke",
        ])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(out_dir())
        .output()
        .expect("the harness starts");
    assert!(
        output.status.success(),
        "{workload} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    let lines: Vec<&str> = stdout.lines().collect();
    (json::parse(lines[0]), json::parse(lines[lines.len() - 1]))
}

fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.chars().all(ok)
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
}

#[test]
fn benchmark_json_stays_inside_the_contract_limits() {
    let spec = benchmark_json();
    let mut keys = spec.keys();
    keys.sort_unstable();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let end_to_end = spec.get("end_to_end").items();
    let per_layer = spec.get("per_layer").items();
    assert!((1..=16).contains(&end_to_end.len()));
    assert!((1..=128).contains(&per_layer.len()));
    assert!((2..=8).contains(&spec.get("workloads").items().len()));
    let mut names: Vec<&str> = end_to_end
        .iter()
        .chain(per_layer)
        .chain(spec.get("workloads").items())
        .map(|m| m.get("name").str())
        .collect();
    assert!(
        names.iter().all(|n| valid_name(n)),
        "a name breaks the charset"
    );
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total, "a name is used twice");
    for m in end_to_end {
        let bound = m.get("bound").num();
        assert!(
            bound > 0.0 && bound <= 0.25,
            "bound of {}",
            m.get("name").str()
        );
    }
    let setup = end_to_end
        .iter()
        .find(|m| m.get("name").str() == "setup_s")
        .expect("setup_s is an end-to-end metric");
    assert_eq!(setup.get("unit").str(), "s");
    assert_eq!(setup.get("better").str(), "lower");
    for w in spec.get("workloads").items() {
        let why = w.get("why").str();
        assert!(why.len() <= 200 && !why.contains('\n'));
    }
}

#[test]
fn every_workload_prints_exactly_the_named_metrics() {
    let spec = benchmark_json();
    for workload in spec.get("workloads").items() {
        let workload = workload.get("name").str();
        for (traced, list) in [(false, "end_to_end"), (true, "per_layer")] {
            let (header, result) = run(workload, traced);
            assert_eq!(header.get("workload").str(), workload);
            assert_eq!(
                result.keys(),
                ["correct", "attempted", "failed", "metrics"],
                "{workload}"
            );
            assert_eq!(result.get("correct"), &Value::Bool(true), "{workload}");
            assert!(result.get("attempted").num() >= 1.0);
            assert_eq!(result.get("failed").num(), 0.0);

            let expected: Vec<(&str, &str)> = spec
                .get(list)
                .items()
                .iter()
                .map(|m| (m.get("name").str(), m.get("unit").str()))
                .collect();
            let metrics = result.get("metrics");
            let printed: Vec<(&str, &str)> = metrics
                .keys()
                .into_iter()
                .map(|name| (name, metrics.get(name).get("unit").str()))
                .collect();
            assert_eq!(printed, expected, "{workload} {list}");
            for (name, _) in &printed {
                let value = metrics.get(name).get("value").num();
                assert!(value.is_finite(), "{workload} {name}");
                // A bound is a share of the parent's value: an end-to-end
                // metric that reads 0 could never be compared.
                assert!(traced || value > 0.0, "{workload} {name} is {value}");
            }
            if traced {
                check_trace_file(workload, &header);
            }
        }
    }
}

/// Every span's parent must be an earlier span of the same request that
/// encloses it.
fn check_trace_file(workload: &str, header: &Value) {
    let path = out_dir().join(format!("{workload}.trace.json"));
    let trace = json::parse(&std::fs::read_to_string(&path).expect("trace file written"));
    assert_eq!(trace.get("workload").str(), workload);
    let spans = trace.get("spans").items();
    assert!(!spans.is_empty(), "{workload} traced nothing");
    for (index, span) in spans.iter().enumerate() {
        assert_eq!(span.get("id").num() as usize, index);
        assert!(span.get("start_ns").num() <= span.get("end_ns").num());
        if let Value::Num(parent) = span.get("parent") {
            let parent = &spans[*parent as usize];
            assert!(parent.get("id").num() < index as f64);
            assert_eq!(parent.get("request"), span.get("request"));
            assert!(parent.get("start_ns").num() <= span.get("start_ns").num());
            assert!(span.get("end_ns").num() <= parent.get("end_ns").num());
        }
    }
    if workload == "mem-read-1m" {
        // No serving layer takes part: the index is a request's only child.
        assert_eq!(
            header.get("notes").get("trace.request_children").str(),
            "core"
        );
    }
}

#[test]
fn misuse_exits_with_code_2_and_no_result() {
    let output = Command::new(HARNESS)
        .args([
            "--workload",
            "no-such-workload",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("the harness starts");
    assert_eq!(output.status.code(), Some(2));
    assert!(output.stdout.is_empty());
}
