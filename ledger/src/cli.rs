//! Command line of the `gkfs-ledger` executable.

use crate::measure::{self, RunSpec};
use crate::workloads::Workload;
use crate::{probes, report, sizes, suite};
use std::process::ExitCode;

/// Parsed command line.
struct Args {
    command: String,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: gkfs-ledger [run] --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       \
         gkfs-ledger all|aa [--seed <n>] [--seconds <s>]\n       \
         --tiny shrinks every size for the smoke test; its numbers mean nothing",
        names.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        command: "run".into(),
        workload: None,
        seed: 1,
        seconds: 15.0,
        trace: false,
        tiny: false,
    };
    let mut it = argv.iter().peekable();
    if let Some(first) = it.peek() {
        if !first.starts_with("--") {
            args.command = it.next().cloned().unwrap_or_default();
        }
    }
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?.clone()),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--tiny" => args.tiny = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn run_one(args: &Args) -> Result<ExitCode, String> {
    let name = args.workload.as_deref().ok_or("run needs --workload")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?;
    let spec = RunSpec {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        sizes: if args.tiny {
            sizes::TINY
        } else {
            sizes::FROZEN
        },
        probe_sizes: if args.tiny {
            probes::TINY
        } else {
            probes::FROZEN
        },
    };
    let outcome = if args.trace {
        measure::traced(&spec)
    } else {
        measure::end_to_end(&spec)
    }
    .map_err(|e| format!("{name}: {e}"))?;
    let correct = outcome.failed == 0 && outcome.attempted > 0;
    println!(
        "{}",
        report::result_line(correct, outcome.attempted, outcome.failed, &outcome.metrics)
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Parse the command line, run, and return the exit code: 0 when every
/// check passed, 1 when a result was wrong, 2 when the arguments were.
pub fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&argv).and_then(|args| match args.command.as_str() {
        "run" => run_one(&args),
        "all" => suite::all(args.seed, args.seconds, args.tiny),
        "aa" => suite::aa(args.seed, args.seconds, args.tiny),
        other => Err(format!("unknown command {other}\n{}", usage())),
    });
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("gkfs-ledger: {e}");
            if argv.is_empty() {
                eprintln!("{}", usage());
            }
            ExitCode::from(2)
        }
    }
}
