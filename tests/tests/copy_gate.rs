//! Data-plane copy-bytes regression gate (wired into `scripts/ci.sh`).
//!
//! The zero-copy data plane's acceptance bar: a scatter-gather
//! `ReadChunks` reply over **real TCP** moves bytes fd → per-chunk
//! buffer → socket with no assembly copy. The daemon counts every byte
//! it has to memmove while building a read reply
//! (`DaemonStats::read_reply_copy_bytes` — reply compaction in the
//! batch engine); for full-data dense reads that counter must be
//! exactly zero, and this gate turns CI red if an intermediate
//! concatenation `Vec` (or any per-reply shuffle) sneaks back in.
//!
//! Short reads (EOF inside the batch window) legitimately compact, so
//! the gate also checks the counter *moves* there — proving the zero
//! on the hot path is a measured zero, not a dead counter.
//!
//! The write direction has the same bar: a striped `pwrite` over real
//! TCP sends sub-slices of the caller's buffer straight to the sockets
//! (`ClientStats::write_gather_copy_bytes == 0`) and the daemons decode
//! each request as a view of the frame they received
//! (`DaemonStatsResp::request_copy_bytes == 0`). The control is the
//! in-process transport, which has to own what it hands to a handler
//! thread and therefore copies every written byte exactly once.
//!
//! And the read direction: a chunk read's reply over TCP is received
//! by its waiter straight into the caller's buffer — the `Vec` a handle
//! returns, or the application's own through the C ABI — so the client
//! writes none of the result's bytes itself
//! (`ClientStats::read_assembly_copy_bytes == 0`); a short read writes
//! its zero-fill and nothing else. The control is again the in-process
//! transport, which hands every reply over as a buffer, copied in whole.

use gekkofs::{Cluster, OpenFlags, TcpCluster};
use gkfs_common::ClusterConfig;
use std::ffi::CString;
use std::sync::atomic::Ordering;
use std::sync::Arc;

const CHUNK: u64 = 64 * 1024;

#[test]
fn tcp_scatter_gather_read_replies_copy_zero_bytes() {
    let cluster = TcpCluster::deploy(
        ClusterConfig::new(2).with_chunk_size(CHUNK),
    )
    .unwrap();
    let fs = cluster.mount().unwrap();

    // 16 chunks of payload through a handle, flushed to the daemons.
    let h = fs
        .open_handle("/gate/full", OpenFlags::RDWR.with_create())
        .unwrap();
    let data: Vec<u8> = (0..16 * CHUNK).map(|i| (i % 251) as u8).collect();
    h.pwrite(0, &data).unwrap();
    h.flush().unwrap();

    // Full-data scatter-gather reads: every byte the daemons return is
    // exactly the byte count requested, chunk-aligned and not — the
    // reply is pure gather, nothing may be compacted or re-assembled.
    for (off, len) in [
        (0u64, 16 * CHUNK),          // whole file, 16-chunk batch
        (0, CHUNK),                  // single chunk
        (3 * CHUNK + 17, 4 * CHUNK), // unaligned window inside the file
    ] {
        let got = h.pread(off, len as usize).unwrap();
        assert_eq!(got.len() as u64, len);
        assert_eq!(got[..], data[off as usize..(off + len) as usize]);
    }
    h.close().unwrap();

    // An `OpenFile` reply is one such read with the entry in front of
    // it: a write-back mount's read-only open of a small file — full,
    // and short of its size (a hole at the tail, zero-filled in place) —
    // comes back whole, and nothing was moved to make it so.
    let back = TcpCluster::mount_remote(cluster.addrs(), &ClusterConfig::new(2).with_chunk_size(CHUNK).with_write_back(CHUNK))
        .unwrap();
    for (path, tail) in [("/gate/small", 0), ("/gate/small-sparse", 100)] {
        let h = fs.open_handle(path, OpenFlags::WRONLY.with_create()).unwrap();
        h.pwrite(0, &data[..4096]).unwrap();
        h.close().unwrap();
        fs.truncate(path, 4096 + tail).unwrap();
        let before = back.stats().rpcs_issued.load(Ordering::Relaxed);
        let r = back.open_handle(path, OpenFlags::RDONLY).unwrap();
        let got = r.pread(0, 8192).unwrap();
        assert_eq!((&got[..4096], &got[4096..]), (&data[..4096], &vec![0u8; tail as usize][..]), "{path}");
        assert_eq!(back.stats().rpcs_issued.load(Ordering::Relaxed) - before, 1, "{path}: the bytes rode the open's reply");
    }

    let copied: u64 = fs
        .cluster_stats()
        .unwrap()
        .iter()
        .map(|s| s.read_reply_copy_bytes)
        .sum();
    assert_eq!(
        copied, 0,
        "scatter-gather read replies must not copy: {copied} bytes re-assembled"
    );

    cluster.shutdown();

    // Control: a hole in the middle of a batch forces reply
    // compaction (later chunks' bytes move down over the gap), so the
    // counter must move — proving the zero above is a measured zero,
    // not a dead counter. One node so the whole sparse batch lands in
    // a single daemon-side read.
    let cluster = TcpCluster::deploy(ClusterConfig::new(1).with_chunk_size(CHUNK)).unwrap();
    let fs = cluster.mount().unwrap();
    let h = fs
        .open_handle("/gate/sparse", OpenFlags::RDWR.with_create())
        .unwrap();
    h.pwrite(0, &data[..CHUNK as usize]).unwrap(); // chunk 0: data
    h.pwrite(3 * CHUNK, &data[..CHUNK as usize]).unwrap(); // chunks 1-2: hole
    h.flush().unwrap();
    let got = h.pread(0, (4 * CHUNK) as usize).unwrap();
    assert_eq!(got.len() as u64, 4 * CHUNK);
    assert_eq!(got[CHUNK as usize..3 * CHUNK as usize], vec![0u8; 2 * CHUNK as usize]);
    h.close().unwrap();
    let compacted: u64 = fs
        .cluster_stats()
        .unwrap()
        .iter()
        .map(|s| s.read_reply_copy_bytes)
        .sum();
    assert!(
        compacted > 0,
        "sparse-read control must exercise compaction (counter is live)"
    );

    cluster.shutdown();
}

#[test]
fn tcp_striped_writes_copy_zero_bytes() {
    // 8 MiB in one call, 1 MiB in the middle of it again, and an
    // unaligned tail: every write spans several chunks on both nodes.
    let data: Vec<u8> = (0..8 * 1024 * 1024u32).map(|i| (i % 241) as u8).collect();
    let writes: [(u64, &[u8]); 3] = [
        (0, &data),
        (3 * CHUNK + 5, &data[..1024 * 1024]),
        (data.len() as u64 - 17, &data[..4 * CHUNK as usize + 99]),
    ];
    let mut model = data.clone();
    for (off, buf) in writes {
        let end = off as usize + buf.len();
        model.resize(model.len().max(end), 0);
        model[off as usize..end].copy_from_slice(buf);
    }
    let written: u64 = writes.iter().map(|(_, buf)| buf.len() as u64).sum();

    let cluster = TcpCluster::deploy(ClusterConfig::new(2).with_chunk_size(CHUNK)).unwrap();
    let fs = cluster.mount().unwrap();
    let h = fs
        .open_handle("/gate/striped", OpenFlags::RDWR.with_create())
        .unwrap();
    for (off, buf) in writes {
        assert_eq!(h.pwrite(off, buf).unwrap(), buf.len());
    }
    h.flush().unwrap();
    assert_eq!(h.pread(0, model.len()).unwrap(), model);
    h.close().unwrap();

    assert_eq!(
        fs.stats().write_gather_copy_bytes.load(Ordering::Relaxed),
        0,
        "tcp writes must go to the socket from the caller's buffer"
    );
    let stats = fs.cluster_stats().unwrap();
    assert_eq!(
        stats.iter().map(|s| s.storage_write_bytes).sum::<u64>(),
        written,
        "the daemons stored what was written"
    );
    assert_eq!(
        stats.iter().map(|s| s.request_copy_bytes).sum::<u64>(),
        0,
        "daemons must hand request payloads on as views of the received frame"
    );
    assert_eq!(
        stats.iter().map(|s| s.read_reply_copy_bytes).sum::<u64>(),
        0,
        "and the read-back was still pure gather"
    );
    cluster.shutdown();

    // Control: the same writes over the in-process transport cost one
    // copy of every byte, so the client counter above is a live one.
    let cluster = Cluster::deploy(ClusterConfig::new(2).with_chunk_size(CHUNK)).unwrap();
    let fs = cluster.mount().unwrap();
    let h = fs
        .open_handle("/gate/striped", OpenFlags::RDWR.with_create())
        .unwrap();
    for (off, buf) in writes {
        h.pwrite(off, buf).unwrap();
    }
    h.flush().unwrap();
    assert_eq!(h.pread(0, model.len()).unwrap(), model);
    h.close().unwrap();
    assert_eq!(
        fs.stats().write_gather_copy_bytes.load(Ordering::Relaxed),
        written,
        "in-process writes copy each byte exactly once"
    );
    cluster.shutdown();
}

#[test]
fn tcp_chunk_reads_land_in_the_callers_buffer_and_copy_zero_bytes() {
    const READ_CHUNK: usize = 512 * 1024;
    let config = ClusterConfig::new(2).with_chunk_size(READ_CHUNK as u64);
    let data: Vec<u8> = (0..4 * READ_CHUNK).map(|i| (i % 241) as u8).collect();
    let cluster = TcpCluster::deploy(config.clone()).unwrap();
    let fs = Arc::new(cluster.mount().unwrap());
    let copied = || fs.stats().read_assembly_copy_bytes.load(Ordering::Relaxed);
    let h = fs.open_handle("/gate/read", OpenFlags::RDWR.with_create()).unwrap();
    h.pwrite(0, &data).unwrap();
    h.flush().unwrap();

    // Dense reads: one chunk, four over both daemons, and two chunks'
    // worth unaligned — into a `Vec`, and into the caller's slice.
    for (off, len) in [(0, READ_CHUNK), (0, 4 * READ_CHUNK), (READ_CHUNK + 99, 2 * READ_CHUNK)] {
        assert_eq!(h.pread(off as u64, len).unwrap(), data[off..off + len]);
    }
    let mut buf = vec![0u8; READ_CHUNK];
    assert_eq!(h.pread_into(READ_CHUNK as u64, &mut buf).unwrap(), READ_CHUNK);
    assert_eq!(buf, data[READ_CHUNK..2 * READ_CHUNK]);
    h.close().unwrap();
    assert_eq!(copied(), 0, "a dense chunk read copies nothing into its result");

    // `gkfs_pread` lands in the application's buffer.
    gkfs_posix::install_client(Arc::clone(&fs));
    let path = CString::new("/gate/read").unwrap();
    let mut app = vec![0u8; 2 * READ_CHUNK];
    // SAFETY: a live NUL-terminated path, and a buffer of the length
    // passed with it.
    let read = unsafe {
        let fd = gkfs_posix::gkfs_open(path.as_ptr(), 0, 0);
        assert!(fd >= 0, "open");
        let n = gkfs_posix::gkfs_pread(fd, app.as_mut_ptr(), app.len(), READ_CHUNK as u64);
        assert_eq!(gkfs_posix::gkfs_close(fd), 0);
        n
    };
    gkfs_posix::uninstall_client();
    assert_eq!(read, app.len() as isize);
    assert_eq!(app, data[READ_CHUNK..3 * READ_CHUNK]);
    assert_eq!(copied(), 0, "gkfs_pread copies nothing either");

    // A short read: the file grown past its bytes, its last chunk and
    // the hole behind it read at once. The hole's 1000 bytes are
    // zero-filled in place; the chunk before them lands.
    let grown = (4 * READ_CHUNK + 1000) as u64;
    fs.truncate("/gate/read", grown).unwrap();
    let r = fs.open_handle("/gate/read", OpenFlags::RDONLY).unwrap();
    let tail = r.pread(3 * READ_CHUNK as u64, READ_CHUNK + 1000).unwrap();
    assert_eq!((&tail[..READ_CHUNK], &tail[READ_CHUNK..]), (&data[3 * READ_CHUNK..], &[0u8; 1000][..]));
    r.close().unwrap();
    assert_eq!(copied(), 1000, "a short read writes its zero-fill and nothing else");
    drop(fs);
    cluster.shutdown();

    // Control: over the in-process transport every reply is a buffer,
    // and every byte of the result a copy.
    let cluster = Cluster::deploy(config).unwrap();
    let fs = cluster.mount().unwrap();
    let h = fs.open_handle("/gate/read", OpenFlags::RDWR.with_create()).unwrap();
    h.pwrite(0, &data).unwrap();
    h.flush().unwrap();
    assert_eq!(h.pread(0, data.len()).unwrap(), data);
    h.close().unwrap();
    assert_eq!(
        fs.stats().read_assembly_copy_bytes.load(Ordering::Relaxed),
        data.len() as u64,
        "in-process reads copy each byte exactly once"
    );
    cluster.shutdown();
}
