//! `gkfs-workload` — the paper's benchmarks as one standalone tool,
//! runnable against any live GekkoFS deployment (like the original
//! mdtest and IOR against a mounted file system).
//!
//! ```sh
//! gkfs-workload mdtest --hosts hosts.txt --procs 16 --files 10000 [--unique-dir]
//! gkfs-workload ior    --hosts hosts.txt --procs 16 --xfer 65536 --block 268435456 \
//!                      [--shared] [--random] [--size-cache N]
//! gkfs-workload replay --hosts hosts.txt --procs 8 trace.txt
//! gkfs-workload replay --hosts hosts.txt --procs 8 --gen-checkpoint 5 1048576
//! ```
//!
//! `mdtest` is §IV-A's metadata benchmark, `ior` §IV-B's data
//! benchmark, `replay` runs an application I/O trace (format in
//! `gkfs_workloads::trace`; `--gen-checkpoint STEPS BYTES` generates a
//! synthetic N-N checkpoint/restart trace instead of reading a file,
//! and `--dump` prints the trace rather than running it).

use gkfs_workloads::trace::format_trace;
use gkfs_workloads::{
    checkpoint_trace, parse_trace, replay_trace, run_ior, run_mdtest, IorConfig, MdtestConfig,
};

fn usage() -> ! {
    eprintln!(
        "usage: gkfs-workload mdtest|ior|replay --hosts LIST|FILE [--procs N] \
         [--chunk-size BYTES]\n\
         \x20 mdtest: [--files N] [--unique-dir] [--work-dir PATH]\n\
         \x20 ior:    [--xfer BYTES] [--block BYTES] [--shared] [--random] [--size-cache N] \
         [--work-dir PATH]\n\
         \x20 replay: (TRACE-FILE | --gen-checkpoint STEPS BYTES) [--dump]"
    );
    std::process::exit(2);
}

fn fail(e: impl std::fmt::Display) -> ! {
    eprintln!("gkfs-workload: {e}");
    std::process::exit(1);
}

fn main() {
    let mut args = std::env::args().skip(1);
    let cmd = args.next().unwrap_or_else(|| usage());
    let mut hosts = None;
    let mut procs = if cmd == "replay" { 4usize } else { 8 };
    let mut chunk_size = gekkofs::DEFAULT_CHUNK_SIZE;
    let mut work_dir = None;
    let mut size_cache = 0usize;
    let mut md = MdtestConfig {
        files_per_process: 5_000,
        ..MdtestConfig::default()
    };
    let mut ior = IorConfig {
        block_size: 16 * 1024 * 1024,
        ..IorConfig::default()
    };
    let (mut trace_file, mut gen_checkpoint, mut dump) = (None, None, false);

    fn num<T: std::str::FromStr>(args: &mut impl Iterator<Item = String>) -> T {
        args.next()
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| usage())
    }
    while let Some(a) = args.next() {
        match (cmd.as_str(), a.as_str()) {
            (_, "--hosts") => hosts = args.next(),
            (_, "--procs") => procs = num(&mut args),
            (_, "--chunk-size") => chunk_size = num(&mut args),
            ("mdtest" | "ior", "--work-dir") => work_dir = args.next(),
            ("mdtest", "--files") => md.files_per_process = num(&mut args),
            ("mdtest", "--unique-dir") => md.unique_dir = true,
            ("ior", "--xfer") => ior.transfer_size = num(&mut args),
            ("ior", "--block") => ior.block_size = num(&mut args),
            ("ior", "--shared") => ior.file_per_process = false,
            ("ior", "--random") => ior.random = true,
            ("ior", "--size-cache") => size_cache = num(&mut args),
            ("replay", "--gen-checkpoint") => {
                gen_checkpoint = Some((num::<usize>(&mut args), num::<u64>(&mut args)))
            }
            ("replay", "--dump") => dump = true,
            ("replay", file) if !file.starts_with("--") => trace_file = Some(file.to_string()),
            _ => usage(),
        }
    }
    let mount = || {
        let hosts = hosts.as_deref().unwrap_or_else(|| usage());
        gekkofs::mount_hosts(hosts, |c| {
            c.with_chunk_size(chunk_size).with_size_cache(size_cache)
        })
    };

    match cmd.as_str() {
        "mdtest" => {
            md.processes = procs;
            md.work_dir = work_dir.unwrap_or(md.work_dir);
            println!(
                "gkfs-workload mdtest: {} procs x {} files, {} dir",
                md.processes,
                md.files_per_process,
                if md.unique_dir { "unique" } else { "single" }
            );
            let r = run_mdtest(mount, &md).unwrap_or_else(|e| fail(e));
            println!("  files : {}", r.total_files);
            println!("  create: {:>12.0} ops/s", r.creates_per_sec());
            println!("  stat  : {:>12.0} ops/s", r.stats_per_sec());
            println!("  remove: {:>12.0} ops/s", r.removes_per_sec());
            println!("  rpcs  : {:>12.2} per file", r.rpcs_per_file());
        }
        "ior" => {
            ior.processes = procs;
            ior.work_dir = work_dir.unwrap_or(ior.work_dir);
            println!(
                "gkfs-workload ior: {} procs, {} B transfers, {} B/proc, {}, {}",
                ior.processes,
                ior.transfer_size,
                ior.block_size,
                if ior.file_per_process {
                    "file-per-process"
                } else {
                    "shared file"
                },
                if ior.random { "random" } else { "sequential" },
            );
            let r = run_ior(mount, &ior).unwrap_or_else(|e| fail(e));
            println!(
                "  write: {:>10.1} MiB/s  ({:.0} ops/s)",
                r.write_mib_per_sec(),
                r.write_iops()
            );
            println!(
                "  read : {:>10.1} MiB/s  ({:.0} ops/s)",
                r.read_mib_per_sec(),
                r.read_iops()
            );
        }
        "replay" => {
            let trace = match (trace_file, gen_checkpoint) {
                (Some(f), None) => {
                    let text = std::fs::read_to_string(&f)
                        .unwrap_or_else(|e| fail(format!("cannot read {f}: {e}")));
                    parse_trace(&text).unwrap_or_else(|e| fail(e))
                }
                (None, Some((steps, bytes))) => checkpoint_trace(procs, steps, bytes),
                _ => usage(),
            };
            if dump {
                print!("{}", format_trace(&trace));
                return;
            }
            println!(
                "gkfs-workload replay: {} entries, {procs} ranks",
                trace.len()
            );
            let r = replay_trace(mount, procs, &trace).unwrap_or_else(|e| fail(e));
            println!(
                "  {} ops in {:?} ({:.0} ops/s), {} B written, {} B read",
                r.ops_executed,
                r.elapsed,
                r.ops_per_sec(),
                r.bytes_written,
                r.bytes_read
            );
        }
        _ => usage(),
    }
}
