//! `gkfs-bench pairs` — the ledger benchmark's parent/change alternation
//! with a same-session A/A series (`gkfs_bench::pairs`).
//!
//! ```sh
//! gkfs-bench pairs --parent P/gkfs-ledger --change C/gkfs-ledger \
//!     --workloads ior.seq1m,mdtest.unary --pairs 10 --seconds 15 --seed 5700 \
//!     --out BENCH_57.json [--bench BENCHMARK.json] [--work DIR]
//! gkfs-bench pairs --table BENCH_57.json   # the markdown table of a written file
//! ```
//!
//! Without `--change` it runs the A/A series alone. Each binary is copied
//! into a directory of its own under `--work` (default
//! `target/gkfs-bench-pairs`), and each run links it into a fresh
//! directory under `--work/run`, where the ledger keeps its scratch. The
//! `--out` file holds every run's result line and rusage and every
//! cell's verdict; the table goes to stdout, and one line per run to
//! stderr while the session runs.

use gkfs_bench::json::Json;
use gkfs_bench::pairs::{self, Plan};
use std::path::PathBuf;

fn usage() -> ! {
    eprintln!(
        "usage: gkfs-bench pairs --parent BIN [--change BIN] --workloads W[,W...] --pairs N \
         --seconds S --seed N --out FILE [--bench BENCHMARK.json] [--work DIR]\n       \
         gkfs-bench pairs --table FILE"
    );
    std::process::exit(2);
}

fn read_json(path: &str) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("gkfs-bench: {path}: {e}");
        std::process::exit(1);
    });
    Json::parse(&text).unwrap_or_else(|e| {
        eprintln!("gkfs-bench: {path}: {e}");
        std::process::exit(1);
    })
}

fn main() {
    let mut args = std::env::args().skip(1);
    if args.next().as_deref() != Some("pairs") {
        usage();
    }
    let mut opts = std::collections::HashMap::new();
    while let Some(flag) = args.next() {
        let Some(name) = flag.strip_prefix("--") else { usage() };
        opts.insert(name.to_string(), args.next().unwrap_or_else(|| usage()));
    }
    if let Some(file) = opts.get("table") {
        let (metrics, runs) = pairs::from_json(&read_json(file)).unwrap_or_else(|e| {
            eprintln!("gkfs-bench: {file}: {e}");
            std::process::exit(1);
        });
        print!("{}", pairs::table(&pairs::cells(&runs, &metrics)));
        return;
    }
    let need = |k: &str| opts.get(k).cloned().unwrap_or_else(|| usage());
    let number = |k: &str| need(k).parse::<u64>().unwrap_or_else(|_| usage());
    let plan = Plan {
        parent: need("parent").into(),
        change: opts.get("change").map(PathBuf::from),
        workloads: need("workloads").split(',').map(String::from).collect(),
        pairs: number("pairs") as usize,
        seconds: number("seconds"),
        seed: number("seed"),
        work: opts.get("work").map_or("target/gkfs-bench-pairs".into(), PathBuf::from),
    };
    let out = need("out");
    let metrics = pairs::metrics(&read_json(opts.get("bench").map_or("BENCHMARK.json", String::as_str)));
    let runs = pairs::run(&plan, |r| {
        let rss = r.line.get("metrics").and_then(|m| m.get("peak_rss_mib")?.get("value")?.num());
        eprintln!(
            "{} pair {} {} {} seed {}: peak_rss_mib {:.2}, {:.1} CPU-s",
            r.workload,
            r.pair + 1,
            if r.aa { "a/a" } else { "real" },
            r.side.name(),
            r.seed,
            rss.unwrap_or(f64::NAN),
            r.usage.user_s + r.usage.sys_s,
        );
    })
    .unwrap_or_else(|e| {
        eprintln!("gkfs-bench: {e}");
        std::process::exit(1);
    });
    std::fs::write(&out, pairs::to_json(&plan, &metrics, &runs)).unwrap_or_else(|e| {
        eprintln!("gkfs-bench: {out}: {e}");
        std::process::exit(1);
    });
    print!("{}", pairs::table(&pairs::cells(&runs, &metrics)));
}
