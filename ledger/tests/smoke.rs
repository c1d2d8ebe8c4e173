//! Seconds-long run of the whole benchmark at tiny sizes: all five
//! workloads, untraced and traced. It keeps the frozen benchmark
//! compiling against later refactors and `BENCHMARK.json` in step with
//! what the executable prints. The numbers mean nothing.

use gkfs_ledger::json::Json;
use std::collections::BTreeMap;
use std::process::Command;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// name → unit of the metrics listed under `key`.
fn declared(doc: &Json, key: &str) -> BTreeMap<String, String> {
    doc.get(key)
        .expect("metric list")
        .arr()
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Json::str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn run(workload: &str, trace: &str) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_gkfs-ledger"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0.4"])
        .args(["--trace", trace, "--tiny"])
        .output()
        .expect("the benchmark executable starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed: {}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    Json::parse(last).unwrap_or_else(|e| panic!("result line of {workload}: {e}: {last}"))
}

#[test]
fn every_workload_reports_every_declared_metric_and_no_error() {
    let doc = benchmark_json();
    let workloads: Vec<&str> = doc
        .get("workloads")
        .expect("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").and_then(Json::str).expect("workload name"))
        .collect();
    let in_code: Vec<&str> = gkfs_ledger::workloads::Workload::ALL
        .iter()
        .map(|w| w.name())
        .collect();
    assert_eq!(
        workloads, in_code,
        "BENCHMARK.json and the executable name the same workloads"
    );

    for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
        let want = declared(&doc, key);
        for w in &workloads {
            let result = run(w, trace);
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{w} {key}");
            assert_eq!(
                result.get("failed").and_then(Json::num),
                Some(0.0),
                "{w}: error_rate is 0"
            );
            assert!(
                result.get("attempted").and_then(Json::num) >= Some(1.0),
                "{w} attempted"
            );
            let Some(Json::Obj(metrics)) = result.get("metrics") else {
                panic!("{w}: no metrics object");
            };
            let got: BTreeMap<String, String> = metrics
                .iter()
                .map(|(name, m)| {
                    let v = m.get("value").and_then(Json::num).expect("value");
                    assert!(v.is_finite(), "{w}: {name} is not finite");
                    // The driver wants end-to-end metrics that are never 0.
                    assert!(trace == "1" || v > 0.0, "{w}: {name} is {v}");
                    (
                        name.clone(),
                        m.get("unit").and_then(Json::str).expect("unit").to_string(),
                    )
                })
                .collect();
            assert_eq!(
                got, want,
                "{w}: {key} metrics and units match BENCHMARK.json"
            );
        }
    }
}
