//! Configuration for daemons and clusters.
//!
//! Defaults mirror the paper's evaluation setup: 512 KiB chunks
//! (§IV), synchronous cache-less operation (§III-A), and a Margo-style
//! handler pool on each daemon.

use crate::error::{GkfsError, Result};
use std::path::PathBuf;

/// The chunk size used throughout the paper's evaluation: 512 KiB.
pub const DEFAULT_CHUNK_SIZE: u64 = 512 * 1024;

/// The batch-engine argument of `FileChunkStorage::open_with`. It has
/// one value: the number of I/O threads the store is opened with picks
/// the engine (the task-pool fan-out, or serial with zero threads). It
/// stays because the benchmark's probes (`ledger/src/probes.rs`) name it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IoBackend {
    /// The task-pool fan-out, or the serial engine when the store is
    /// opened with zero I/O threads.
    #[default]
    Auto,
}

/// Per-daemon configuration.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Root directory for this daemon's local state (chunk files and
    /// KV store). `None` selects fully in-memory backends — the mode
    /// used by tests and the in-process cluster.
    pub root_dir: Option<PathBuf>,
    /// Chunk size in bytes (power of two).
    pub chunk_size: u64,
    /// Number of RPC handler threads (Margo "handler xstreams").
    pub handler_threads: usize,
    /// Whether the KV store runs its write-ahead log. Disabling it
    /// trades durability for speed — GekkoFS data is ephemeral by
    /// design, so both settings are legitimate.
    pub kv_wal: bool,
    /// Workers in the chunk I/O task pool (Argobots ULT stand-in,
    /// §III-B): per-chunk ops of one batch fan out over these threads.
    /// `0` runs every batch serially on its handler thread.
    pub chunk_io_threads: usize,
    /// Bound on queued chunk tasks; at saturation the handler runs
    /// tasks inline (caller-runs degradation) instead of queuing more.
    pub chunk_queue_depth: usize,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            root_dir: None,
            chunk_size: DEFAULT_CHUNK_SIZE,
            handler_threads: 4,
            kv_wal: false,
            chunk_io_threads: 4,
            chunk_queue_depth: 64,
        }
    }
}

/// Client-side fault-handling knobs: retry schedule, circuit breaker,
/// and per-operation deadline. See `gkfs_common::retry` and DESIGN.md
/// "Fault model".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryConfig {
    /// Total attempts per RPC (first try included); `1` disables retry.
    pub max_attempts: u32,
    /// Backoff before the second attempt, in milliseconds.
    pub base_backoff_ms: u64,
    /// Cap on any single backoff, in milliseconds.
    pub max_backoff_ms: u64,
    /// Consecutive transport failures that open a node's circuit
    /// breaker; `0` disables breakers.
    pub breaker_threshold: u32,
    /// How long an open breaker fails fast before probing again, in
    /// milliseconds.
    pub breaker_cooldown_ms: u64,
    /// Deadline for one logical client operation (a whole striped
    /// write, not one RPC), in milliseconds; `0` means unbounded.
    pub op_deadline_ms: u64,
}

impl Default for RetryConfig {
    fn default() -> Self {
        RetryConfig {
            max_attempts: 4,
            base_backoff_ms: 5,
            max_backoff_ms: 200,
            breaker_threshold: 8,
            breaker_cooldown_ms: 250,
            op_deadline_ms: 30_000,
        }
    }
}

impl RetryConfig {
    /// A configuration with retries, breakers, and deadlines all
    /// disabled (each RPC gets one attempt with the transport
    /// timeout) — the pre-retry-layer behavior, useful for tests that
    /// assert on first-failure semantics.
    pub fn disabled() -> RetryConfig {
        RetryConfig {
            max_attempts: 1,
            breaker_threshold: 0,
            op_deadline_ms: 0,
            ..RetryConfig::default()
        }
    }

    /// The [`crate::retry::RetryPolicy`] this configuration describes,
    /// jittered by the default seed.
    pub fn policy(&self) -> crate::retry::RetryPolicy {
        crate::retry::RetryPolicy {
            max_attempts: self.max_attempts.max(1),
            base_backoff: std::time::Duration::from_millis(self.base_backoff_ms),
            max_backoff: std::time::Duration::from_millis(self.max_backoff_ms),
            ..crate::retry::RetryPolicy::default()
        }
    }

    /// A fresh [`crate::retry::Deadline`] for one client operation.
    pub fn op_deadline(&self) -> crate::retry::Deadline {
        if self.op_deadline_ms == 0 {
            crate::retry::Deadline::never()
        } else {
            crate::retry::Deadline::after(std::time::Duration::from_millis(self.op_deadline_ms))
        }
    }
}

/// Replication, failure-detection and recovery knobs. See DESIGN.md
/// "Replication, failure detection and recovery".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicationConfig {
    /// Copies of every chunk and metadata entry (including the
    /// primary). `1` disables replication — the paper's mode: a lost
    /// daemon loses its data.
    pub replicas: usize,
    /// Acks required before a write is reported durable. `0` means
    /// "all replicas"; clamped to `1..=replicas`. Quorums below
    /// `replicas` let writes complete while a node is down at the cost
    /// of reads from the skipped replica seeing holes until
    /// re-replication catches up.
    pub write_quorum: usize,
    /// Latency threshold after which a read of the primary hedges to
    /// the next replica, in milliseconds. `0` turns hedging off: the
    /// window is the endpoint timeout, so a replica is waited out
    /// (under the operation deadline) before the next is asked.
    pub hedge_after_ms: u64,
    /// Idle-probe interval of the heartbeat thread, in milliseconds.
    pub heartbeat_interval_ms: u64,
    /// Silence (no successful exchange) after which a node is marked
    /// `Suspect`, in milliseconds.
    pub suspect_after_ms: u64,
    /// Silence after which a node is marked `Dead` and re-replication
    /// starts, in milliseconds.
    pub dead_after_ms: u64,
}

impl Default for ReplicationConfig {
    fn default() -> Self {
        ReplicationConfig {
            replicas: 1,
            write_quorum: 0,
            hedge_after_ms: 50,
            heartbeat_interval_ms: 500,
            suspect_after_ms: 1_500,
            dead_after_ms: 4_000,
        }
    }
}

impl ReplicationConfig {
    /// Whether replication is on at all.
    pub fn enabled(&self) -> bool {
        self.replicas > 1
    }

    /// The effective write quorum: `write_quorum` clamped to
    /// `1..=min(replicas, nodes)`, with `0` meaning "all".
    pub fn quorum(&self, nodes: usize) -> usize {
        let set = self.replicas.clamp(1, nodes.max(1));
        if self.write_quorum == 0 {
            set
        } else {
            self.write_quorum.clamp(1, set)
        }
    }

    /// The hedge threshold as a `Duration`, or `None` when disabled.
    pub fn hedge_after(&self) -> Option<std::time::Duration> {
        (self.hedge_after_ms > 0).then(|| std::time::Duration::from_millis(self.hedge_after_ms))
    }
}

/// Cluster-wide configuration shared by clients and daemons.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of file-system nodes (each runs one daemon).
    pub nodes: usize,
    /// Chunk size — must match on every node.
    pub chunk_size: u64,
    /// Client-side size-update cache (§IV-B): number of write size
    /// updates to coalesce before flushing to the metadata owner.
    /// `0` disables the cache (the paper's default, synchronous mode):
    /// every write whose end grows past the size the owner is known to
    /// hold sends its update at once. At any window, an update that
    /// would not grow that size waits for the next growing write or
    /// `flush`/`fsync`/`close`.
    pub size_cache_ops: usize,
    /// Client-side write-back buffer capacity per open path, in
    /// bytes. Small sequential writes to one file coalesce into
    /// batches of up to this many bytes before the chunk fan-out;
    /// `flush`/`fsync`/`close` force the batch out. `0` disables
    /// write-back (the paper's default: every write is an RPC).
    pub write_back: u64,
    /// Client-side fault handling: retry schedule, circuit breakers,
    /// per-operation deadlines.
    pub retry: RetryConfig,
    /// N-way replication, heartbeat failure detection and recovery.
    pub replication: ReplicationConfig,
}

impl ClusterConfig {
    /// Cluster configuration with paper-default knobs for `nodes` nodes.
    pub fn new(nodes: usize) -> ClusterConfig {
        ClusterConfig {
            nodes,
            chunk_size: DEFAULT_CHUNK_SIZE,
            size_cache_ops: 0,
            write_back: 0,
            retry: RetryConfig::default(),
            replication: ReplicationConfig::default(),
        }
    }

    /// With chunk size.
    pub fn with_chunk_size(mut self, chunk_size: u64) -> Self {
        self.chunk_size = chunk_size;
        self
    }

    /// Enable the client-side size-update cache with the given
    /// coalescing window (number of writes).
    pub fn with_size_cache(mut self, ops: usize) -> Self {
        self.size_cache_ops = ops;
        self
    }

    /// Enable the write-back buffer (one per open path, shared by the
    /// handles on it) with the given capacity in bytes. Pass [`ClusterConfig::chunk_size`]-sized (or larger)
    /// capacities to get chunk-aligned batches out of small sequential
    /// writes.
    pub fn with_write_back(mut self, bytes: u64) -> Self {
        self.write_back = bytes;
        self
    }

    /// With the given fault-handling configuration.
    pub fn with_retry(mut self, retry: RetryConfig) -> Self {
        self.retry = retry;
        self
    }

    /// With the per-operation deadline in milliseconds (`0` =
    /// unbounded).
    pub fn with_op_deadline_ms(mut self, ms: u64) -> Self {
        self.retry.op_deadline_ms = ms;
        self
    }

    /// Enable N-way replication with `replicas` copies per chunk and
    /// metadata entry (quorum defaults to "all").
    pub fn with_replicas(mut self, replicas: usize) -> Self {
        self.replication.replicas = replicas.max(1);
        self
    }

    /// With the given replication configuration.
    pub fn with_replication(mut self, r: ReplicationConfig) -> Self {
        self.replication = r;
        self
    }

    /// With the write-quorum knob (`0` = all replicas).
    pub fn with_write_quorum(mut self, quorum: usize) -> Self {
        self.replication.write_quorum = quorum;
        self
    }
}

/// The daemon addresses of a deployment, named the way every
/// command-line tool names them (`gkfs-daemon --peers`, `--hosts`): a
/// comma-separated list, or a hosts file with one address per line —
/// `gkfs-daemon`'s own `LISTENING <addr>` lines are accepted as they
/// are. Blank entries are dropped, so a trailing comma adds no node. A
/// file that exists but cannot be read, or a spec that names no
/// address, is an error.
pub fn parse_hosts(spec: &str) -> Result<Vec<String>> {
    let addrs: Vec<String> = if std::path::Path::new(spec).exists() {
        std::fs::read_to_string(spec)?
            .lines()
            .map(|l| l.trim().trim_start_matches("LISTENING").trim().to_string())
            .filter(|l| !l.is_empty())
            .collect()
    } else {
        spec.split(',')
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .collect()
    };
    if addrs.is_empty() {
        return Err(GkfsError::InvalidArgument("no daemon addresses".into()));
    }
    Ok(addrs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hosts_lists_drop_blank_entries() {
        assert_eq!(parse_hosts("h1,h2,").unwrap(), ["h1", "h2"]);
        assert_eq!(parse_hosts("h1,,h2").unwrap(), ["h1", "h2"]);
        assert_eq!(parse_hosts(" h1 , h2 ").unwrap(), ["h1", "h2"]);
        assert!(matches!(parse_hosts(""), Err(GkfsError::InvalidArgument(_))));
        assert!(matches!(parse_hosts(" , ,"), Err(GkfsError::InvalidArgument(_))));
    }

    #[test]
    #[cfg_attr(miri, ignore = "touches the file system")]
    fn hosts_files_drop_blank_lines_and_must_be_readable() {
        let dir = std::env::temp_dir().join(format!("gkfs-hosts-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("hosts");
        std::fs::write(&file, "LISTENING 127.0.0.1:9841\n\n  LISTENING 127.0.0.1:9842  \nh3\n").unwrap();
        assert_eq!(
            parse_hosts(file.to_str().unwrap()).unwrap(),
            ["127.0.0.1:9841", "127.0.0.1:9842", "h3"]
        );
        std::fs::write(&file, "\n \n").unwrap();
        assert!(matches!(
            parse_hosts(file.to_str().unwrap()),
            Err(GkfsError::InvalidArgument(_))
        ));
        // A directory exists but is no readable hosts file.
        assert!(matches!(parse_hosts(dir.to_str().unwrap()), Err(GkfsError::Io(_))));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn defaults_match_paper() {
        let c = ClusterConfig::new(4);
        assert_eq!(c.chunk_size, 512 * 1024);
        assert_eq!(c.size_cache_ops, 0, "paper default is synchronous");
    }

    #[test]
    fn builder_chain() {
        let c = ClusterConfig::new(8)
            .with_chunk_size(64 * 1024)
            .with_size_cache(32);
        assert_eq!(c.chunk_size, 64 * 1024);
        assert_eq!(c.size_cache_ops, 32);
    }

    #[test]
    fn retry_config_builders() {
        let c = ClusterConfig::new(2);
        assert_eq!(c.retry, RetryConfig::default());
        let c = c
            .with_retry(RetryConfig::disabled())
            .with_op_deadline_ms(1_500);
        assert_eq!(c.retry.max_attempts, 1);
        assert_eq!(c.retry.breaker_threshold, 0);
        assert_eq!(c.retry.op_deadline_ms, 1_500);
        assert_eq!(c.retry.policy().max_attempts, 1);
        // op_deadline_ms == 0 means "never".
        assert_eq!(
            RetryConfig {
                op_deadline_ms: 0,
                ..RetryConfig::default()
            }
            .op_deadline(),
            crate::retry::Deadline::never()
        );
    }

    #[test]
    fn daemon_defaults() {
        let d = DaemonConfig::default();
        assert!(d.root_dir.is_none());
        assert_eq!(d.chunk_size, DEFAULT_CHUNK_SIZE);
        assert!(d.handler_threads >= 1);
        assert!(d.chunk_io_threads >= 1);
        assert!(d.chunk_queue_depth >= d.chunk_io_threads);
    }
}
