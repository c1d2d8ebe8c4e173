//! `all` and `aa`: whole sets of runs. Every run of a workload is its
//! own child process (this executable, re-executed), so no workload
//! inherits another's heap, page cache footprint or peak RSS.

use crate::json::Json;
use crate::workloads::Workload;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

/// Metric name → value, from a child's result line.
type Metrics = BTreeMap<String, f64>;

/// Run one workload in a child process and echo what it printed.
/// Returns its metrics; `Err` if it failed or reported incorrect.
fn child(w: Workload, seed: u64, seconds: f64, trace: bool, tiny: bool) -> Result<Metrics, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", w.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if tiny {
        cmd.arg("--tiny");
    }
    // `output` waits for the child to end.
    let out = cmd
        .output()
        .map_err(|e| format!("spawning {}: {e}", w.name()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    for line in stdout.lines() {
        println!("    {line}");
    }
    if !out.status.success() {
        return Err(format!(
            "{} (trace {}) exited with {}: {}",
            w.name(),
            u8::from(trace),
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let last = stdout.lines().last().ok_or("child printed nothing")?;
    let doc = Json::parse(last)?;
    if doc.get("correct") != Some(&Json::Bool(true)) {
        return Err(format!("{} reported incorrect results", w.name()));
    }
    let Some(Json::Obj(metrics)) = doc.get("metrics") else {
        return Err("result line has no metrics".into());
    };
    metrics
        .iter()
        .map(|(name, m)| {
            let v = m
                .get("value")
                .and_then(Json::num)
                .ok_or("metric without value")?;
            Ok((name.clone(), v))
        })
        .collect()
}

fn print_table(title: &str, rows: &BTreeMap<String, BTreeMap<&'static str, f64>>) {
    println!("\n{title}");
    print!("{:<36}", "metric");
    for w in Workload::ALL {
        print!("{:>16}", w.name());
    }
    println!();
    for (metric, by_workload) in rows {
        print!("{metric:<36}");
        for w in Workload::ALL {
            match by_workload.get(w.name()) {
                Some(v) => print!("{v:>16.4}"),
                None => print!("{:>16}", "-"),
            }
        }
        println!();
    }
}

/// Every workload, the untraced and then the traced run of each.
pub fn all(seed: u64, seconds: f64, tiny: bool) -> Result<ExitCode, String> {
    let mut e2e: BTreeMap<String, BTreeMap<&'static str, f64>> = BTreeMap::new();
    let mut layers = e2e.clone();
    for w in Workload::ALL {
        for (trace, table) in [(false, &mut e2e), (true, &mut layers)] {
            println!("== {} --trace {}", w.name(), u8::from(trace));
            for (metric, v) in child(w, seed, seconds, trace, tiny)? {
                table.entry(metric).or_default().insert(w.name(), v);
            }
        }
    }
    print_table("end-to-end metrics (untraced runs)", &e2e);
    print_table("per-layer metrics (traced runs)", &layers);
    Ok(ExitCode::SUCCESS)
}

/// Bound per gated metric, from `BENCHMARK.json`.
fn bounds() -> Result<BTreeMap<String, f64>, String> {
    let candidates = [
        std::path::PathBuf::from("BENCHMARK.json"),
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
    ];
    let text = candidates
        .iter()
        .find_map(|p| std::fs::read_to_string(p).ok())
        .ok_or("BENCHMARK.json not found from here; run from the repository root")?;
    let doc = Json::parse(&text)?;
    let list = doc
        .get("end_to_end")
        .ok_or("BENCHMARK.json has no end_to_end")?;
    list.arr()
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::str)
                .ok_or("metric without name")?;
            let bound = m
                .get("bound")
                .and_then(Json::num)
                .ok_or("metric without bound")?;
            Ok((name.to_string(), bound))
        })
        .collect()
}

/// Two full sets with the same seed and a third with another seed.
/// Prints, per (metric, workload), how far the sets disagree relative
/// to the metric's bound, and fails if any pair disagrees by more.
pub fn aa(seed: u64, seconds: f64, tiny: bool) -> Result<ExitCode, String> {
    let bounds = bounds()?;
    let mut sets: Vec<BTreeMap<&'static str, Metrics>> = Vec::new();
    for (label, s) in [("A", seed), ("B", seed), ("C", seed + 1)] {
        let mut set = BTreeMap::new();
        for w in Workload::ALL {
            println!("== set {label} seed {s}: {}", w.name());
            set.insert(w.name(), child(w, s, seconds, false, tiny)?);
        }
        sets.push(set);
    }
    println!(
        "\n{:<16}{:<14}{:>14}{:>14}{:>14}{:>9}{:>9}{:>8}  verdict",
        "metric", "workload", "A", "B (=seed)", "C (seed+1)", "|A-B|/A", "|A-C|/A", "bound"
    );
    let mut disagreements = 0;
    for (metric, bound) in &bounds {
        for w in Workload::ALL {
            let v = |i: usize| sets[i][w.name()].get(metric).copied().unwrap_or(f64::NAN);
            let (a, b, c) = (v(0), v(1), v(2));
            let (ab, ac) = ((a - b).abs() / a, (a - c).abs() / a);
            // `!(x <= bound)` also catches a missing (NaN) value.
            let ok = ab <= *bound && ac <= *bound;
            if !ok {
                disagreements += 1;
            }
            println!(
                "{metric:<16}{:<14}{a:>14.4}{b:>14.4}{c:>14.4}{ab:>9.3}{ac:>9.3}{bound:>8.2}  {}",
                w.name(),
                if ok { "agree" } else { "DISAGREE" }
            );
        }
    }
    if disagreements > 0 {
        println!("{disagreements} gated (metric, workload) pairs disagree beyond their bound");
        return Ok(ExitCode::FAILURE);
    }
    println!("every gated (metric, workload) pair agrees within its bound");
    Ok(ExitCode::SUCCESS)
}
