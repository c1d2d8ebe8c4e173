//! The rank runner every driver shares.
//!
//! mdtest and IOR are MPI programs: N ranks run each phase in
//! lock-step and the phase's wall clock — first rank released to last
//! rank done — is what "operations per second" divides by. Here a rank
//! is a thread with its own mounted client (as each MPI process links
//! its own preload library), and [`Ranks::phase`] is the one place that
//! spawns them, holds them at a start gate, times the phase and
//! collects the first error.

use gekkofs::{ClientStats, GekkoClient, GkfsError, Result};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// N mounted clients, one per rank.
pub struct Ranks {
    clients: Vec<GekkoClient>,
}

impl Ranks {
    /// Mount `n` clients through `mount` — `|| cluster.mount()` for an
    /// in-process cluster, fresh TCP connections for a live deployment.
    pub fn mount(n: usize, mount: impl Fn() -> Result<GekkoClient>) -> Result<Ranks> {
        assert!(n > 0, "a workload needs at least one rank");
        let clients = (0..n).map(|_| mount()).collect::<Result<_>>()?;
        Ok(Ranks { clients })
    }

    /// Rank 0's client, for untimed setup and teardown.
    pub fn rank0(&self) -> &GekkoClient {
        &self.clients[0]
    }

    /// Untimed setup: make sure directory `path` exists. An entry that
    /// is already there is fine (drivers re-run in one namespace);
    /// anything else — a daemon that cannot be reached — fails the run.
    pub fn mkdir(&self, path: &str) -> Result<()> {
        match self.rank0().mkdir(path, 0o755) {
            Err(GkfsError::Exists) => Ok(()),
            other => other,
        }
    }

    /// A client counter summed over all ranks.
    pub fn total(&self, counter: impl Fn(&ClientStats) -> u64) -> u64 {
        self.clients.iter().map(|c| counter(c.stats())).sum()
    }

    /// Run one phase on every rank and return its wall clock.
    ///
    /// Each rank thread runs `prepare` (untimed: open handles, build
    /// offset lists), waits at the start gate, then runs `body` on what
    /// it prepared. The clock starts when the gate opens and stops when
    /// the last rank returns. A rank whose `prepare` failed still
    /// reaches the gate, so one bad open cannot hang the others; the
    /// lowest-ranked error is the phase's result.
    pub fn phase<'a, T>(
        &'a self,
        prepare: impl Fn(usize, &'a GekkoClient) -> Result<T> + Sync,
        body: impl Fn(usize, &'a GekkoClient, T) -> Result<()> + Sync,
    ) -> Result<Duration> {
        let gate = Barrier::new(self.clients.len() + 1);
        std::thread::scope(|s| {
            let handles: Vec<_> = self
                .clients
                .iter()
                .enumerate()
                .map(|(rank, client)| {
                    let (gate, prepare, body) = (&gate, &prepare, &body);
                    s.spawn(move || {
                        let ready = prepare(rank, client);
                        gate.wait();
                        body(rank, client, ready?)
                    })
                })
                .collect();
            gate.wait();
            let t0 = Instant::now();
            let mut outcome = Ok(());
            for h in handles {
                let r = h.join().expect("rank thread panicked");
                outcome = outcome.and(r);
            }
            outcome.map(|()| t0.elapsed())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gekkofs::{Cluster, ClusterConfig};
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn phase_runs_every_rank_and_reports_the_first_error() {
        let cluster = Cluster::deploy(ClusterConfig::new(2)).unwrap();
        let ranks = Ranks::mount(3, || cluster.mount()).unwrap();
        let ran = AtomicUsize::new(0);
        ranks
            .phase(
                |rank, _| Ok(rank * 10),
                |rank, _, ready| {
                    assert_eq!(ready, rank * 10);
                    ran.fetch_add(1, Ordering::Relaxed);
                    Ok(())
                },
            )
            .unwrap();
        assert_eq!(ran.load(Ordering::Relaxed), 3);

        // A failed prepare on one rank neither hangs the gate nor is
        // lost; the other ranks still run their bodies.
        let ran = AtomicUsize::new(0);
        let err = ranks
            .phase(
                |rank, _| {
                    if rank == 1 {
                        Err(GkfsError::NotFound)
                    } else {
                        Ok(())
                    }
                },
                |_, _, ()| {
                    ran.fetch_add(1, Ordering::Relaxed);
                    Ok(())
                },
            )
            .unwrap_err();
        assert_eq!(err, GkfsError::NotFound);
        assert_eq!(ran.load(Ordering::Relaxed), 2);
        cluster.shutdown();
    }

    #[test]
    fn mkdir_tolerates_exists_only() {
        let cluster = Cluster::deploy(ClusterConfig::new(2)).unwrap();
        let ranks = Ranks::mount(1, || cluster.mount()).unwrap();
        ranks.mkdir("/d").unwrap();
        ranks.mkdir("/d").unwrap();
        // A daemon that is gone is not "already exists".
        cluster.shutdown();
        assert!(ranks.mkdir("/e").is_err());
    }
}
