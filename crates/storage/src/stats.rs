//! Storage-layer counters.

use std::sync::atomic::{AtomicU64, Ordering};

/// I/O counters for one chunk store.
#[derive(Debug, Default)]
pub struct StorageStats {
    /// Chunk writes served.
    pub write_ops: AtomicU64,
    /// Bytes written to chunks.
    pub write_bytes: AtomicU64,
    /// Chunk reads served.
    pub read_ops: AtomicU64,
    /// Bytes read from chunks.
    pub read_bytes: AtomicU64,
    /// Open-fd cache hits (file backend; zero for in-memory stores).
    pub fd_hits: AtomicU64,
    /// Open-fd cache misses — each one cost an `open(2)`.
    pub fd_misses: AtomicU64,
    /// Shard-directory enumerations (file backend): what a remove of
    /// "whatever you hold", a truncate or an inventory costs, and what
    /// a remove by known ids or a read must never do. Local to the
    /// store — not a field of the `DaemonStats` reply.
    pub dir_scans: AtomicU64,
    /// Batch ops merged into a preceding op's syscall by coalescing.
    pub coalesced_ops: AtomicU64,
    /// Batch segments dispatched onto the I/O task pool.
    pub tasks_spawned: AtomicU64,
    /// Batch segments run inline on the submitting thread (pool
    /// saturated, or caller-runs overflow).
    pub tasks_inline: AtomicU64,
}

impl StorageStats {
    /// Record write.
    pub fn record_write(&self, bytes: usize) {
        self.write_ops.fetch_add(1, Ordering::Relaxed);
        self.write_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Record read.
    pub fn record_read(&self, bytes: usize) {
        self.read_ops.fetch_add(1, Ordering::Relaxed);
        self.read_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_accumulate() {
        let s = StorageStats::default();
        s.record_write(10);
        s.record_write(20);
        s.record_read(5);
        assert_eq!(s.write_ops.load(Ordering::Relaxed), 2);
        assert_eq!(s.write_bytes.load(Ordering::Relaxed), 30);
        assert_eq!(s.read_ops.load(Ordering::Relaxed), 1);
        assert_eq!(s.read_bytes.load(Ordering::Relaxed), 5);
    }
}
