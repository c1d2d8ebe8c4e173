//! Regenerate the paper's figures and in-text experiments.
//!
//! ```sh
//! cargo run --release -p gkfs-bench --bin figures               # every table
//! cargo run --release -p gkfs-bench --bin figures fig2 fig3     # some of them
//! cargo run --release -p gkfs-bench --bin figures -- --csv results
//! cargo run --release -p gkfs-bench --bin figures -- --smoke    # smallest sizes (CI)
//! ```
//!
//! Names are the stems under `results/`: `fig2`, `fig3`,
//! `random_access`, `shared_file`, `deploy_time`, `chunk_size_sim`,
//! `distribution_sim`, `batch_grid`. `--csv DIR` writes the simulated
//! series of the plotted ones to `DIR/<name>.csv` instead of printing
//! tables (the real-FS passes do not run).

use gkfs_bench::figures::FIGURES;
use gkfs_bench::to_csv;

fn usage() -> ! {
    let names: Vec<&str> = FIGURES.iter().map(|f| f.0).collect();
    eprintln!("usage: figures [--smoke] [--csv DIR] [NAME...]\n  names: {}", names.join(" "));
    std::process::exit(2);
}

fn main() {
    let (mut smoke, mut csv_dir, mut names) = (false, None, Vec::new());
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--csv" => csv_dir = Some(args.next().unwrap_or_else(|| usage())),
            name if FIGURES.iter().any(|f| f.0 == name) => names.push(a),
            _ => usage(),
        }
    }
    let chosen = FIGURES.iter().filter(|f| names.is_empty() || names.iter().any(|n| n == f.0));
    let Some(dir) = csv_dir else {
        for (n, (_, _, parts)) in chosen.enumerate() {
            let tables = parts.iter().flat_map(|part| part(smoke));
            let text: String = tables.map(|t| t.render()).collect();
            print!("{}{text}", if n > 0 { "\n" } else { "" });
        }
        return;
    };
    std::fs::create_dir_all(&dir).expect("create output dir");
    for (name, _, parts) in chosen.filter(|f| f.1) {
        let path = format!("{dir}/{name}.csv");
        std::fs::write(&path, to_csv(&parts[0](smoke))).expect("write csv");
        println!("wrote {path}");
    }
}
