//! # gkfs-integration — cross-crate integration tests
//!
//! The tests live in `tests/` and exercise the full stack: client →
//! RPC (both transports) → daemon → KV store / chunk storage, plus
//! cross-validation of the simulator against the real file system.
//!
//! This lib target exists only to give the integration-test crate a
//! compilation unit; shared helpers live here.

use gekkofs::{Cluster, ClusterConfig, Daemon, Result};
use gkfs_rpc::proto::{MetaOp, PathReq};

/// Deploy a small in-process cluster with a given chunk size, for
/// tests that need wide striping with small data.
pub fn small_chunk_cluster(nodes: usize, chunk_size: u64) -> Result<Cluster> {
    Cluster::deploy(ClusterConfig::new(nodes).with_chunk_size(chunk_size))
}

/// Does `daemon` hold a metadata entry for `path`, asked of its backend
/// directly (what a replica holds, whatever the client would be told)?
pub fn holds_meta(daemon: &Daemon, path: &str) -> bool {
    let stat = MetaOp::Stat(PathReq::new(path));
    daemon.backends().meta.apply_one(stat).is_ok()
}

/// Deterministic pseudo-random payload.
pub fn payload(len: usize, seed: u64) -> Vec<u8> {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state & 0xFF) as u8
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_is_deterministic_and_varied() {
        assert_eq!(payload(64, 1), payload(64, 1));
        assert_ne!(payload(64, 1), payload(64, 2));
        let p = payload(4096, 3);
        let distinct: std::collections::HashSet<u8> = p.iter().copied().collect();
        assert!(distinct.len() > 100, "payload should look random");
    }
}
