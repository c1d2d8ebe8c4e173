//! In-memory chunk storage.
//!
//! Same contract as [`crate::FileChunkStorage`], held in a sharded map.
//! Used by tests and by in-process clusters where exercising a real
//! disk would only add noise. Sharding by path hash keeps concurrent
//! writers of *different* files off each other's locks; a batch runs
//! on the calling thread under one acquisition of its file's shard
//! lock (the ops are memcpys — re-acquiring the lock per op would cost
//! more than it overlaps): a batch is never fanned out, since parallel
//! fan-out only pays off on the file backend (see EXPERIMENTS.md).

use crate::{check_write_windows, to_usize, validate_dense_layout};
use crate::{BatchOp, ChunkStorage};
use gkfs_common::hash::fnv1a64;
use gkfs_common::Result;
use gkfs_common::lock::{rank, OrderedRwLock};
use gkfs_common::metrics::DaemonCounters;
use std::collections::HashMap;
use std::sync::atomic::Ordering;

const SHARDS: usize = 16;

type ChunkMap = HashMap<String, HashMap<u64, Vec<u8>>>;

/// Heap-backed chunk store.
pub struct MemChunkStorage {
    shards: Vec<OrderedRwLock<ChunkMap>>,
    stats: DaemonCounters,
}

impl Default for MemChunkStorage {
    fn default() -> Self {
        Self::new()
    }
}

impl MemChunkStorage {
    /// New.
    pub fn new() -> MemChunkStorage {
        MemChunkStorage {
            shards: (0..SHARDS)
                .map(|_| OrderedRwLock::new(rank::STORAGE_SHARD, HashMap::new()))
                .collect(),
            stats: DaemonCounters::default(),
        }
    }

    fn shard(&self, path: &str) -> &OrderedRwLock<ChunkMap> {
        &self.shards[to_usize(fnv1a64(path.as_bytes()) % SHARDS as u64)]
    }

    /// Total bytes held across all chunks (diagnostics).
    pub fn total_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| {
                shard.read()
                    .values()
                    .flat_map(|chunks| chunks.values().map(|c| c.len()))
                    .sum::<usize>()
            })
            .sum()
    }

    fn write_ops(&self, path: &str, ops: &[BatchOp], bulk: &[u8]) {
        // One shard-lock acquisition for the whole batch; all ops of a
        // batch share `path` and therefore a shard.
        let mut shard = self.shard(path).write();
        let chunks = shard.entry(path.to_string()).or_default();
        for op in ops {
            let (offset, len) = (to_usize(op.offset), to_usize(op.len));
            self.stats.storage_write_ops.fetch_add(1, Ordering::Relaxed);
            self.stats.storage_write_bytes.fetch_add(len as u64, Ordering::Relaxed);
            let chunk = chunks.entry(op.chunk_id).or_default();
            let end = offset + len;
            if chunk.len() < end {
                chunk.resize(end, 0);
            }
            let a = to_usize(op.buf_offset);
            chunk[offset..end].copy_from_slice(&bulk[a..a + len]);
        }
    }

    fn read_ops(&self, path: &str, ops: &[BatchOp], out: &mut [u8]) -> Vec<u64> {
        let shard = self.shard(path).read();
        let chunks = shard.get(path);
        let mut lens = Vec::with_capacity(ops.len());
        for op in ops {
            let n = match chunks.and_then(|c| c.get(&op.chunk_id)) {
                Some(chunk) => {
                    let start = to_usize(op.offset).min(chunk.len());
                    let end = to_usize(op.offset + op.len).min(chunk.len());
                    let a = to_usize(op.buf_offset);
                    out[a..a + (end - start)].copy_from_slice(&chunk[start..end]);
                    end - start
                }
                None => 0,
            };
            self.stats.storage_read_ops.fetch_add(1, Ordering::Relaxed);
            self.stats.storage_read_bytes.fetch_add(n as u64, Ordering::Relaxed);
            lens.push(n as u64);
        }
        lens
    }
}

impl ChunkStorage for MemChunkStorage {
    fn write_batch(&self, path: &str, ops: &[BatchOp], bulk: &[u8]) -> Result<()> {
        check_write_windows(ops, bulk.len())?;
        self.write_ops(path, ops, bulk);
        Ok(())
    }

    fn read_batch(&self, path: &str, ops: &[BatchOp], out: &mut Vec<u8>) -> Result<Vec<u64>> {
        let total = to_usize(validate_dense_layout(ops)?);
        out.clear();
        out.resize(total, 0);
        Ok(self.read_ops(path, ops, out))
    }

    fn remove_chunks(&self, path: &str, ids: &[u64]) -> Result<()> {
        let mut shard = self.shard(path).write();
        if ids.is_empty() {
            shard.remove(path);
        } else if let Some(chunks) = shard.get_mut(path) {
            for id in ids {
                chunks.remove(id);
            }
        }
        Ok(())
    }

    fn truncate_chunks(&self, path: &str, keep_chunk: u64, keep_bytes: u64) -> Result<()> {
        let mut shard = self.shard(path).write();
        if let Some(chunks) = shard.get_mut(path) {
            chunks.retain(|&id, _| id <= keep_chunk);
            if let Some(boundary) = chunks.get_mut(&keep_chunk) {
                if boundary.len() as u64 > keep_bytes {
                    boundary.truncate(to_usize(keep_bytes));
                }
            }
        }
        Ok(())
    }

    fn holds(&self, path: &str, chunk_id: u64) -> Result<bool> {
        Ok(self
            .shard(path)
            .read()
            .get(path)
            .is_some_and(|c| c.contains_key(&chunk_id)))
    }

    fn list_chunks(&self, path: &str) -> Result<Vec<(u64, u64)>> {
        let mut out: Vec<(u64, u64)> = self
            .shard(path)
            .read()
            .get(path)
            .map(|chunks| {
                chunks
                    .iter()
                    .map(|(&id, data)| (id, data.len() as u64))
                    .collect()
            })
            .unwrap_or_default();
        out.sort_unstable();
        Ok(out)
    }

    fn list_paths(&self) -> Result<Vec<(String, usize)>> {
        let mut out = Vec::new();
        for shard in &self.shards {
            for (path, chunks) in shard.read().iter() {
                if !chunks.is_empty() {
                    out.push((path.clone(), chunks.len()));
                }
            }
        }
        Ok(out)
    }

    fn stats(&self) -> &DaemonCounters {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_bytes_tracks_contents() {
        let s = MemChunkStorage::new();
        assert_eq!(s.total_bytes(), 0);
        s.write_chunk("/a", 0, 0, &[0u8; 100]).unwrap();
        s.write_chunk("/b", 1, 0, &[0u8; 50]).unwrap();
        assert_eq!(s.total_bytes(), 150);
        s.remove_chunks("/a", &[]).unwrap();
        assert_eq!(s.total_bytes(), 50);
    }

    #[test]
    fn shards_distribute_paths() {
        let s = MemChunkStorage::new();
        for i in 0..200 {
            s.write_chunk(&format!("/f{i}"), 0, 0, b"x").unwrap();
        }
        let populated = s.shards.iter().filter(|shard| !shard.read().is_empty()).count();
        assert!(populated > SHARDS / 2, "paths should spread over shards");
    }
}
