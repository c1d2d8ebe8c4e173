//! Counters, declared once.
//!
//! [`counters!`](crate::counters) declares a struct of counters and its
//! `fields()` walk: every field by name, in declaration order. The one
//! list below names every daemon counter by its wire name and emits
//! both the block each daemon layer counts into ([`DaemonCounters`])
//! and the `DaemonStats` reply ([`DaemonStatsResp`]), which is the sum
//! of a daemon's blocks plus the few values it computes when asked.
//! Adding a counter is one line in the list and the line that bumps
//! it; the reply, its codec and `gkfs-cli df` follow.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A field a counter walk reads.
pub trait Counter {
    /// Its value now. A histogram reads as the samples it holds.
    fn read(&self) -> u64;
}

impl Counter for AtomicU64 {
    fn read(&self) -> u64 {
        self.load(Ordering::Relaxed)
    }
}

impl<T: Counter> Counter for Arc<T> {
    fn read(&self) -> u64 {
        (**self).read()
    }
}

impl<const N: usize> Counter for [AtomicU64; N] {
    fn read(&self) -> u64 {
        self.iter().map(Counter::read).sum()
    }
}

/// Declare a struct of [`Counter`] fields and its `fields()` walk.
/// Docs, derives and visibilities pass through unchanged.
#[macro_export]
macro_rules! counters {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $( $(#[$fmeta:meta])* $fvis:vis $field:ident : $ty:ty ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $( $(#[$fmeta])* $fvis $field: $ty, )*
        }

        impl $name {
            /// Every counter by name, in declaration order.
            pub fn fields(&self) -> Vec<(&'static str, u64)> {
                vec![$( (stringify!($field), $crate::metrics::Counter::read(&self.$field)) ),*]
            }
        }
    };
}

/// The daemon's list: `counted` names what a layer's block holds,
/// `computed` what the `DaemonStats` handler fills in itself.
macro_rules! daemon_counters {
    (
        counted { $( $(#[$cdoc:meta])* $c:ident, )* }
        computed { $( $(#[$vdoc:meta])* $v:ident, )* }
    ) => {
        crate::counters! {
            /// One block of daemon counters. Each daemon layer (the
            /// metadata store, the chunk store, the replication
            /// manager) owns one and bumps only its own names; the
            /// `DaemonStats` reply sums the blocks.
            #[derive(Debug, Default)]
            pub struct DaemonCounters {
                $( $(#[$cdoc])* pub $c: AtomicU64, )*
            }
        }

        crate::wire_struct! {
            /// `DaemonStats` response: a flat counter snapshot.
            #[derive(Debug, Clone, PartialEq, Eq, Default)]
            pub struct DaemonStatsResp {
                $( $(#[$cdoc])* pub $c: u64, )*
                $( $(#[$vdoc])* pub $v: u64, )*
                /// This daemon's liveness verdict for each peer
                /// (`gkfs_common::health::Liveness` wire form, self
                /// included).
                pub liveness: Vec<u8>,
            }
        }

        impl DaemonCounters {
            /// Add this block's counts into `r`.
            pub fn add_to(&self, r: &mut DaemonStatsResp) {
                $( r.$c += self.$c.load(Ordering::Relaxed); )*
            }
        }

        impl DaemonStatsResp {
            /// Every counter by name, in wire order.
            pub fn fields(&self) -> Vec<(&'static str, u64)> {
                vec![$( (stringify!($c), self.$c), )* $( (stringify!($v), self.$v), )*]
            }
        }
    };
}

daemon_counters! {
    counted {
        /// KV point inserts/overwrites served.
        kv_puts,
        /// KV point lookups served.
        kv_gets,
        /// KV merge operands applied.
        kv_merges,
        /// Memtable flushes completed by the background flush thread.
        kv_flushes,
        /// L0→L1 compactions completed by the background thread.
        kv_compactions,
        /// Episodes of a writer held up: waiting on the frozen-memtable
        /// backlog or on L0 at the stall threshold, or one L0-slowdown
        /// sleep. An explicit flush is none.
        kv_stalls,
        /// Microseconds writers spent in those episodes.
        kv_stall_micros,
        /// Reads served from a frozen (immutable) memtable.
        kv_imm_hits,
        /// WAL group commits (shared append/fsync batches).
        kv_group_commits,
        /// Records carried by those group commits.
        kv_group_commit_records,
        /// Table probes skipped by bloom filters.
        kv_bloom_skips,
        /// `BatchMeta` frames group-applied by this daemon.
        meta_batches,
        /// Individual metadata ops carried inside those frames.
        meta_batch_ops,
        /// Batches that staged at least one mutation and committed a
        /// kvstore `WriteBatch` (one WAL record / fsync each).
        meta_group_applies,
        /// Chunk writes served.
        storage_write_ops,
        /// Bytes written to chunks.
        storage_write_bytes,
        /// Chunk reads served.
        storage_read_ops,
        /// Bytes read from chunks.
        storage_read_bytes,
        /// Segments of a fanned-out chunk batch that a pool worker ran.
        chunk_tasks_spawned,
        /// Segments of a fanned-out chunk batch that its own waiter ran:
        /// the one it keeps, one the queue had no room for, or one no
        /// worker had started when it came to wait.
        chunk_inline_runs,
        /// Open-fd cache hits in the chunk store.
        fd_cache_hits,
        /// Open-fd cache misses (each one cost an `open(2)`).
        fd_cache_misses,
        /// Shard-directory enumerations: what a remove of "whatever you
        /// hold", a truncate or an inventory costs, and what a remove
        /// by known ids or a read must never do.
        dir_scans,
        /// Batch ops merged into a neighbor's syscall by coalescing.
        coalesced_ops,
        /// Bytes copied compacting read replies after short reads (zero
        /// on the scatter/gather happy path).
        read_reply_copy_bytes,
        /// Chunks and metadata entries this daemon believes are missing
        /// a replica right now.
        under_replicated_chunks,
        /// Re-replication tasks queued but not yet completed.
        repl_backlog,
        /// Chunks pushed to a recovery target since startup.
        repl_chunks_copied,
        /// Metadata entries pushed to a recovery target since startup.
        repl_meta_copied,
        /// Heartbeat probes sent by this daemon.
        heartbeats_sent,
        /// Heartbeat probes answered by this daemon.
        heartbeats_received,
    }
    computed {
        /// Metadata entries in the store, counted by a walk when asked.
        meta_entries,
        /// Configured copies per chunk/metadata entry (1 = replication
        /// off).
        replication_factor,
        /// Request body/bulk bytes this daemon's TCP server copied again
        /// after reading them off the socket (zero while requests are
        /// views of their received frame; zero without a TCP server).
        request_copy_bytes,
        /// Requests a TCP server's progress loop dispatched and
        /// answered itself.
        served_inline,
        /// Requests the TCP server queued on the handler pool.
        served_pooled,
        /// Waits of a TCP server's loop that found their event while
        /// it polled its epoll set.
        spun,
        /// Polling windows of a TCP server's loop that ran out before
        /// any event came.
        spin_expired,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::Wire;

    crate::counters! {
        #[derive(Default)]
        struct Mixed {
            one: AtomicU64,
            shared: Arc<AtomicU64>,
            hist: [AtomicU64; 3],
        }
    }

    #[test]
    fn a_walk_reads_every_field_by_name() {
        let m = Mixed::default();
        m.one.store(1, Ordering::Relaxed);
        m.shared.store(2, Ordering::Relaxed);
        m.hist[0].store(3, Ordering::Relaxed);
        m.hist[2].store(4, Ordering::Relaxed);
        assert_eq!(m.fields(), [("one", 1), ("shared", 2), ("hist", 7)]);
    }

    #[test]
    fn the_reply_is_the_sum_of_its_blocks() {
        let (a, b) = (DaemonCounters::default(), DaemonCounters::default());
        a.kv_puts.store(2, Ordering::Relaxed);
        b.kv_puts.store(3, Ordering::Relaxed);
        b.dir_scans.store(1, Ordering::Relaxed);
        let mut r = DaemonStatsResp {
            spun: 4,
            ..DaemonStatsResp::default()
        };
        a.add_to(&mut r);
        b.add_to(&mut r);
        assert_eq!((r.kv_puts, r.dir_scans, r.spun), (5, 1, 4));
        let names: Vec<_> = r.fields().into_iter().map(|(n, _)| n).collect();
        let blocks: Vec<_> = a.fields().into_iter().map(|(n, _)| n).collect();
        assert_eq!(
            names[..blocks.len()],
            blocks[..],
            "a block's names lead the reply's"
        );
        assert_eq!(names.len(), blocks.len() + 7);
        // Every counter is a u64 on the wire; the liveness list closes it.
        assert_eq!(DaemonStatsResp::MIN_LEN, names.len() * 8 + 4);
    }
}
