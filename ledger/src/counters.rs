//! The one place the benchmark reads the program's counters:
//! `ClientStats` on each rank's mount and `GekkoClient::cluster_stats()`
//! through an observer mount whose own RPCs the ranks' counters never
//! see. A later change to either surface has exactly this file to keep
//! working.

use gkfs_client::GekkoClient;
use gkfs_common::Result;
use std::sync::atomic::{AtomicU64, Ordering};

/// Index of one cumulative counter in [`Counts`].
#[derive(Debug, Clone, Copy)]
#[repr(usize)]
enum C {
    /// Logical RPCs the ranks issued.
    Rpcs,
    /// `write`/`pwrite` calls.
    WriteCalls,
    /// Bytes the ranks wrote.
    UserWriteBytes,
    /// Size updates sent to metadata owners.
    SizeUpdates,
    /// Write-back batches flushed.
    WbFlushes,
    /// Metadata ops that travelled in `BatchMeta` frames.
    MetaOpsBatched,
    /// `BatchMeta` frames sent, all triggers.
    MetaFrames,
    /// KV puts and merges, all daemons.
    KvWrites,
    /// Compactions, all daemons.
    KvCompactions,
    /// Microseconds writers spent stalled, all daemons.
    KvStallUs,
    /// WAL group commits, all daemons.
    KvGroupCommits,
    /// Records those commits carried.
    KvGroupCommitRecords,
    /// Bytes written to chunk storage.
    StWriteBytes,
    /// Fd-cache hits.
    FdHits,
    /// Fd-cache misses.
    FdMisses,
    /// Batch ops merged into a neighbour's positional syscall.
    CoalescedOps,
    /// Bytes copied while assembling read replies.
    ReadReplyCopyBytes,
    /// `BatchMeta` frames applied as one KV write batch.
    MetaGroupApplies,
    /// Number of counters; not a counter.
    Len,
}

/// Counters at one instant, or their growth over a window: the ranks'
/// client counters summed, the daemons' counters summed, memtable
/// flushes kept per daemon.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counts {
    sums: [u64; C::Len as usize],
    kv_flushes: Vec<u64>,
}

impl Counts {
    /// Read every counter. `ranks` are the mounts doing the work;
    /// `observer` only carries the stats RPCs.
    pub fn read(ranks: &[GekkoClient], observer: &GekkoClient) -> Result<Counts> {
        let mut c = Counts::default();
        let mut add = |i: C, v: u64| c.sums[i as usize] += v;
        for fs in ranks {
            let s = fs.stats();
            let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
            add(C::Rpcs, get(&s.rpcs_issued));
            add(C::WriteCalls, get(&s.write_ops));
            add(C::UserWriteBytes, get(&s.bytes_written));
            add(C::SizeUpdates, get(&s.size_updates_sent));
            add(C::WbFlushes, get(&s.wb_flushes));
            add(C::MetaOpsBatched, get(&s.meta_ops_batched));
            add(
                C::MetaFrames,
                get(&s.meta_flush_count)
                    + get(&s.meta_flush_bytes)
                    + get(&s.meta_flush_deadline)
                    + get(&s.meta_flush_hazard)
                    + get(&s.meta_flush_explicit),
            );
        }
        let daemons = observer.cluster_stats()?;
        for d in &daemons {
            add(C::KvWrites, d.kv_puts + d.kv_merges);
            add(C::KvCompactions, d.kv_compactions);
            add(C::KvStallUs, d.kv_stall_micros);
            add(C::KvGroupCommits, d.kv_group_commits);
            add(C::KvGroupCommitRecords, d.kv_group_commit_records);
            add(C::StWriteBytes, d.storage_write_bytes);
            add(C::FdHits, d.fd_cache_hits);
            add(C::FdMisses, d.fd_cache_misses);
            add(C::CoalescedOps, d.coalesced_ops);
            add(C::ReadReplyCopyBytes, d.read_reply_copy_bytes);
            add(C::MetaGroupApplies, d.meta_group_applies);
        }
        c.kv_flushes = daemons.iter().map(|d| d.kv_flushes).collect();
        Ok(c)
    }

    /// Add to `self` the growth from `before` to `after`.
    pub fn add_window(&mut self, before: &Counts, after: &Counts) {
        for (i, sum) in self.sums.iter_mut().enumerate() {
            *sum += after.sums[i] - before.sums[i];
        }
        self.kv_flushes.resize(after.kv_flushes.len(), 0);
        for (i, f) in self.kv_flushes.iter_mut().enumerate() {
            *f += after.kv_flushes[i] - before.kv_flushes.get(i).copied().unwrap_or(0);
        }
    }

    /// The per-layer count metrics for a window in which the ranks
    /// completed `ops` units of work, by metric name. A ratio whose
    /// layer was idle in the window reads 0.
    pub fn layer_metrics(&self, ops: u64) -> Vec<(&'static str, f64)> {
        let n = |i: C| self.sums[i as usize];
        let ratio = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        vec![
            ("client.rpcs_per_op", ratio(n(C::Rpcs), ops)),
            (
                "client.meta_ops_per_frame",
                ratio(n(C::MetaOpsBatched), n(C::MetaFrames)),
            ),
            (
                "client.wb_calls_per_flush",
                ratio(n(C::WriteCalls), n(C::WbFlushes)),
            ),
            (
                "client.size_updates_per_write",
                ratio(n(C::SizeUpdates), n(C::WriteCalls)),
            ),
            ("kv.writes_per_op", ratio(n(C::KvWrites), ops)),
            // The least-flushed daemon, so "≥ 3" reads as "every daemon".
            (
                "kv.flushes",
                self.kv_flushes.iter().copied().min().unwrap_or(0) as f64,
            ),
            ("kv.compactions", n(C::KvCompactions) as f64),
            ("kv.stall_us", n(C::KvStallUs) as f64),
            (
                "kv.group_commit_records_per_batch",
                ratio(n(C::KvGroupCommitRecords), n(C::KvGroupCommits)),
            ),
            (
                "st.write_amp",
                ratio(n(C::StWriteBytes), n(C::UserWriteBytes)),
            ),
            (
                "st.fd_cache_hit_ratio",
                ratio(n(C::FdHits), n(C::FdHits) + n(C::FdMisses)),
            ),
            ("st.coalesced_ops", n(C::CoalescedOps) as f64),
            (
                "daemon.read_reply_copy_bytes",
                n(C::ReadReplyCopyBytes) as f64,
            ),
            ("daemon.meta_group_applies", n(C::MetaGroupApplies) as f64),
        ]
    }
}
