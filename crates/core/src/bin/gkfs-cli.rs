//! `gkfs-cli` — a command-line client for a running GekkoFS
//! deployment.
//!
//! Connects to daemons listed in a hosts file (one `ADDR` per line, as
//! printed by `gkfs-daemon`) or a comma-separated list, then executes
//! one file-system command:
//!
//! ```sh
//! gkfs-cli --hosts hosts.txt ls /
//! gkfs-cli --hosts 127.0.0.1:9820,127.0.0.1:9821 put ./data.bin /data.bin
//! gkfs-cli --hosts hosts.txt stat /data.bin
//! gkfs-cli --hosts hosts.txt get /data.bin ./back.bin
//! gkfs-cli --hosts hosts.txt rm /data.bin
//! ```
//!
//! All clients must agree on `--chunk-size` (and distributor) with
//! every other client of the deployment — the usual GekkoFS contract
//! that placement is a pure function of shared configuration.

use gekkofs::GkfsError;

fn usage() -> ! {
    eprintln!(
        "usage: gkfs-cli --hosts LIST|FILE [--chunk-size BYTES] [--replicas N] \
         [--quorum N] COMMAND...\n\
         \n\
         --quorum N  write acks required before success (default 0 = all\n\
                     replicas; lower it to keep writing with a node down)\n\
         \n\
         commands:\n\
         ls PATH                list a directory\n\
         stat PATH              print metadata\n\
         mkdir PATH             create a directory\n\
         rmdir PATH             remove an empty directory\n\
         touch PATH             create an empty file\n\
         rm PATH                remove a file\n\
         put LOCAL REMOTE       upload a local file\n\
         get REMOTE LOCAL       download to a local file\n\
         cat PATH               print file contents\n\
         write PATH TEXT        write TEXT at offset 0\n\
         truncate PATH SIZE     truncate/extend a file\n\
         df                     per-daemon statistics\n\
         fsck [--purge]         namespace consistency check"
    );
    std::process::exit(2);
}

fn run() -> Result<(), GkfsError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut hosts = None;
    let mut chunk_size = gekkofs::DEFAULT_CHUNK_SIZE;
    let mut replicas = 1usize;
    let mut quorum = 0usize;
    let mut rest = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--hosts" => hosts = it.next(),
            "--chunk-size" => {
                chunk_size = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--replicas" => {
                replicas = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--quorum" => {
                quorum = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--help" | "-h" => usage(),
            _ => {
                rest.push(a);
                rest.extend(it.by_ref());
            }
        }
    }
    let Some(hosts) = hosts else { usage() };
    if rest.is_empty() {
        usage();
    }

    let fs = gekkofs::mount_hosts(&hosts, |c| {
        c.with_chunk_size(chunk_size)
            .with_replicas(replicas)
            .with_write_quorum(quorum)
    })?;
    let arg = |i: usize| -> &str {
        rest.get(i).map(String::as_str).unwrap_or_else(|| usage())
    };

    match arg(0) {
        "ls" => {
            for e in fs.readdir(arg(1))? {
                let kind = match e.kind {
                    gekkofs::FileKind::Directory => "d",
                    gekkofs::FileKind::File => "-",
                };
                println!("{kind} {:>12} {}", e.size, e.name);
            }
        }
        "stat" => {
            let m = fs.stat(arg(1))?;
            println!(
                "{} kind={:?} size={} mode={:o} ctime_ns={} mtime_ns={}",
                arg(1),
                m.kind,
                m.size,
                m.mode,
                m.ctime_ns,
                m.mtime_ns
            );
        }
        "mkdir" => fs.mkdir(arg(1), 0o755)?,
        "rmdir" => fs.rmdir(arg(1))?,
        "touch" => fs.create(arg(1), 0o644)?,
        "rm" => fs.unlink(arg(1))?,
        "put" => {
            let data = std::fs::read(arg(1))?;
            // Create if missing; overwrite from zero.
            let flags = gekkofs::OpenFlags::WRONLY.with_create().with_truncate();
            let h = fs.open_handle(arg(2), flags)?;
            h.pwrite(0, &data)?;
            h.close()?;
            println!("{} bytes -> {}", data.len(), arg(2));
        }
        "get" => {
            let h = fs.open_handle(arg(1), gekkofs::OpenFlags::RDONLY)?;
            let data = h.pread(0, h.size() as usize)?;
            std::fs::write(arg(2), &data)?;
            println!("{} bytes <- {}", data.len(), arg(1));
        }
        "cat" => {
            let h = fs.open_handle(arg(1), gekkofs::OpenFlags::RDONLY)?;
            let data = h.pread(0, h.size() as usize)?;
            use std::io::Write;
            std::io::stdout().write_all(&data)?;
        }
        "write" => {
            let text = arg(2).as_bytes();
            let h = fs.open_handle(arg(1), gekkofs::OpenFlags::WRONLY.with_create())?;
            h.pwrite(0, text)?;
            h.close()?;
        }
        "truncate" => {
            let size: u64 = arg(2).parse().map_err(|_| {
                GkfsError::InvalidArgument(format!("bad size {}", arg(2)))
            })?;
            fs.truncate(arg(1), size)?;
        }
        "fsck" => {
            let report = fs.fsck()?;
            println!(
                "checked {} files in {} directories",
                report.files_checked, report.directories_checked
            );
            for (node, path) in &report.orphan_chunks {
                println!("ORPHAN chunks on node {node}: {path}");
            }
            for path in &report.chunkless_files {
                println!("note: {path} has size > 0 but no chunks (sparse or lost)");
            }
            if report.is_clean() {
                println!("clean");
            } else if rest.get(1).map(String::as_str) == Some("--purge") {
                let n = fs.fsck_purge(&report)?;
                println!("purged {n} orphan chunk holdings");
            } else {
                std::process::exit(1);
            }
        }
        "df" => {
            let show = |fields: Vec<(&str, u64)>| {
                for (name, n) in fields {
                    println!("        {name:<24} {n}");
                }
            };
            let health = fs.node_health();
            for (i, s) in fs.cluster_stats()?.iter().enumerate() {
                println!("node {i}:");
                show(s.fields());
                if !s.liveness.is_empty() {
                    let peers: Vec<String> = s
                        .liveness
                        .iter()
                        .map(|&b| gekkofs::Liveness::from_u8(b).to_string())
                        .collect();
                    println!("        peers [{}]", peers.join(" "));
                }
                if let Some(h) = health.get(i) {
                    println!("        health {h:?}");
                }
            }
            println!("client:");
            show(fs.stats().fields());
        }
        other => {
            eprintln!("unknown command: {other}");
            usage();
        }
    }
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("gkfs-cli: {e}");
        std::process::exit(1);
    }
}
