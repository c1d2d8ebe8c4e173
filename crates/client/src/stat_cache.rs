//! Optional client-side metadata cache — the paper's §V future-work
//! item *"evaluate benefits of caching"*.
//!
//! GekkoFS is deliberately cache-less (§III-A) so that every operation
//! measures raw capability and single-file consistency stays strong.
//! This cache is the experiment the paper proposes: stat results are
//! kept for a bounded TTL, trading staleness (another client's size
//! update may be invisible for up to `ttl`) for round-trip elimination
//! in stat-heavy workloads (`ls -l` storms, open-before-read chains,
//! EOF probing in the read path).
//!
//! The cache keeps only what a daemon said. Local mutations by *this*
//! client (create/truncate/remove, and every size update it sends)
//! invalidate the entry; what the client knows beyond the daemons — a
//! buffered size update, unflushed write-back bytes — lives in the
//! path's [`crate::filemap::LocalFile`] and is laid over the cached
//! answer, so a client always reads its own writes.

use gkfs_common::Metadata;
use gkfs_common::lock::{rank, OrderedMutex};
use std::collections::HashMap;
use std::time::{Duration, Instant};

struct Entry {
    meta: Metadata,
    fetched: Instant,
}

/// TTL-bounded map of path → metadata.
pub struct StatCache {
    ttl: Duration,
    entries: OrderedMutex<HashMap<String, Entry>>,
}

impl StatCache {
    /// New.
    pub fn new(ttl: Duration) -> StatCache {
        StatCache {
            ttl,
            entries: OrderedMutex::new(rank::CLIENT_STAT_CACHE, HashMap::new()),
        }
    }

    /// Fresh cached metadata for `path`, if any.
    pub fn get(&self, path: &str) -> Option<Metadata> {
        let mut entries = self.entries.lock();
        match entries.get(path) {
            Some(e) if e.fetched.elapsed() <= self.ttl => Some(e.meta.clone()),
            Some(_) => {
                entries.remove(path);
                None
            }
            None => None,
        }
    }

    /// Record freshly fetched metadata.
    pub fn put(&self, path: &str, meta: Metadata) {
        self.entries.lock().insert(
            path.to_string(),
            Entry {
                meta,
                fetched: Instant::now(),
            },
        );
    }

    /// Drop one entry (local create/truncate/remove/size update).
    pub fn invalidate(&self, path: &str) {
        self.entries.lock().remove(path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(size: u64) -> Metadata {
        let mut m = Metadata::new_file(1);
        m.size = size;
        m
    }

    #[test]
    fn hit_within_ttl_miss_after() {
        let c = StatCache::new(Duration::from_millis(40));
        assert!(c.get("/f").is_none());
        c.put("/f", meta(10));
        assert_eq!(c.get("/f").unwrap().size, 10);
        std::thread::sleep(Duration::from_millis(60));
        assert!(c.get("/f").is_none(), "expired");
        assert!(c.entries.lock().is_empty(), "the expired entry is dropped");
    }

    #[test]
    fn invalidate_drops_one_entry() {
        let c = StatCache::new(Duration::from_secs(10));
        c.put("/a", meta(1));
        c.put("/b", meta(2));
        c.invalidate("/a");
        assert!(c.get("/a").is_none());
        assert!(c.get("/b").is_some());
    }
}
