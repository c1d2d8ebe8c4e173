//! Deploy the system the way a job script would: disk-backed daemons
//! with the shipped `DaemonConfig` defaults, served on TCP loopback,
//! mounted over `TcpEndpoint`s.

use crate::sizes::{CHUNK, NODES, RANKS};
use crate::trace::{RpcLog, TracedEndpoint, Transport};
use gkfs_client::GekkoClient;
use gkfs_common::{ClusterConfig, DaemonConfig, GkfsError, Result};
use gkfs_daemon::Daemon;
use gkfs_rpc::{Endpoint, Opcode, Request, TcpEndpoint};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};

/// Directory every workload's files live in.
pub const WORK_DIR: &str = "/w";

/// A directory inside the build tree (next to the running executable)
/// for daemon state, so the benchmark reads and writes only inside its
/// checkout. Removed on drop.
pub struct Scratch(PathBuf);

extern "C" {
    fn ioctl(fd: i32, request: u64, ...) -> i32;
}

/// `_IOR('f', 1, long)` and `_IOW('f', 2, long)` on 64-bit Linux.
const FS_IOC_GETFLAGS: u64 = 0x8008_6601;
const FS_IOC_SETFLAGS: u64 = 0x4008_6602;
/// "Top of directory hierarchies".
const FS_TOPDIR_FL: std::ffi::c_long = 0x0002_0000;

/// Flag `dir` and every directory below it top-level (`chattr -R +T`).
///
/// Why: the sandbox's file system is ext4 without a journal. There,
/// ext4 will not reuse an inode deleted in the last 60-360 s and steps
/// over such inodes one by one on every allocation in their block
/// group; it also creates a file in its directory's group and, when
/// that group is crowded (beside a build directory it is), scans the
/// other groups one by one. Measured: the same `mkdir` + `open(O_CREAT)`
/// costs 45 us or 600 us of kernel CPU depending on what was deleted
/// nearby in the last minutes, which moved `smallfile.wb` ingest
/// between 6900 and 1100 files/s from one run to the next. ext4
/// spreads the subdirectories of a top-level directory over all block
/// groups, so deletions never pile up in one: with the daemons' start-up
/// directories flagged, the cost is a steady 45 us. An operator gets
/// the same with `chattr +T` on the node-local scratch directory.
///
/// Best effort: a file system without the flag refuses, and the run
/// goes on as it would have.
fn flag_top_level(dir: &Path) {
    use std::os::fd::AsRawFd;
    let Ok(handle) = std::fs::File::open(dir) else {
        return;
    };
    let mut flags: std::ffi::c_long = 0;
    // SAFETY: `handle` is an open descriptor for the whole call, and
    // both requests take a pointer to one `long`, which `flags` is.
    unsafe {
        if ioctl(handle.as_raw_fd(), FS_IOC_GETFLAGS, &mut flags) == 0 {
            flags |= FS_TOPDIR_FL;
            ioctl(handle.as_raw_fd(), FS_IOC_SETFLAGS, &flags);
        }
    }
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        if entry.file_type().is_ok_and(|t| t.is_dir()) {
            flag_top_level(&entry.path());
        }
    }
}

impl Scratch {
    /// Create `<exe dir>/ledger-data/<pid>`.
    pub fn create() -> std::io::Result<Scratch> {
        let dir = build_dir()?
            .join("ledger-data")
            .join(std::process::id().to_string());
        // A crashed earlier run with the same pid may have left state.
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        flag_top_level(&dir);
        Ok(Scratch(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The directory holding the running executable.
pub fn build_dir() -> std::io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    exe.parent()
        .map(Path::to_path_buf)
        .ok_or_else(|| std::io::Error::other("executable has no parent directory"))
}

/// Words in the kernel's CPU mask: 1024 CPUs.
const MASK_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Where the benchmark's threads run. On a 2-CPU virtual machine a
/// wake-up that crosses CPUs costs several times one that does not,
/// and the scheduler's choice flips round by round: unpinned, the
/// same code measures 22k-40k creates/s within one run. So placement
/// is fixed the way a deployment has it: the ranks (and their
/// connection threads) on the first CPU this process may use, the
/// daemons on the last, every RPC crossing between them.
#[derive(Debug, Clone, Copy)]
pub struct Placement {
    /// CPU of the rank threads.
    pub clients: usize,
    /// CPU of every daemon thread.
    pub daemons: usize,
}

impl Placement {
    /// First and last CPU the process may run on; `None` with fewer
    /// than two, where nothing is pinned. Decided once, before any
    /// thread is pinned, from the affinity the process started with.
    pub fn get() -> Option<Placement> {
        static PLACEMENT: OnceLock<Option<Placement>> = OnceLock::new();
        *PLACEMENT.get_or_init(Placement::detect)
    }

    fn detect() -> Option<Placement> {
        let mut mask = [0u64; MASK_WORDS];
        // SAFETY: `mask` is a live, writable buffer of exactly the
        // byte length passed; pid 0 is the calling thread.
        let rc = unsafe { sched_getaffinity(0, size_of_val(&mask), mask.as_mut_ptr()) };
        if rc != 0 {
            return None;
        }
        let cpus: Vec<usize> = (0..MASK_WORDS * 64)
            .filter(|c| mask[c / 64] >> (c % 64) & 1 == 1)
            .collect();
        match (cpus.first(), cpus.last()) {
            (Some(&clients), Some(&daemons)) if clients != daemons => {
                Some(Placement { clients, daemons })
            }
            _ => None,
        }
    }
}

/// Pin the calling thread to `cpu`; threads it spawns afterwards
/// inherit that. Best effort: a refusal leaves the thread where it
/// was, and the machine line of the report says what was pinned.
fn pin_current_thread(cpu: usize) {
    let mut mask = [0u64; MASK_WORDS];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a live buffer of exactly the byte length
    // passed; pid 0 is the calling thread.
    unsafe { sched_setaffinity(0, size_of_val(&mask), mask.as_ptr()) };
}

/// The cluster configuration a workload mounts with.
pub fn cluster_config(write_back: u64) -> ClusterConfig {
    ClusterConfig::new(NODES)
        .with_chunk_size(CHUNK)
        .with_write_back(write_back)
}

/// Running daemons.
pub struct Deployment {
    daemons: Vec<Arc<Daemon>>,
    addrs: Vec<SocketAddr>,
    config: ClusterConfig,
}

impl Deployment {
    /// Spawn the daemons under `root`, serve TCP, and wait for each to
    /// answer a ping over its socket.
    pub fn up(root: &Path, config: ClusterConfig) -> Result<Deployment> {
        let mut daemons = Vec::with_capacity(config.nodes);
        let mut addrs = Vec::with_capacity(config.nodes);
        for node in 0..config.nodes {
            let d = Daemon::spawn(DaemonConfig {
                root_dir: Some(root.join(format!("node-{node}"))),
                chunk_size: config.chunk_size,
                ..DaemonConfig::default()
            })?;
            addrs.push(d.serve_tcp("127.0.0.1:0")?);
            daemons.push(d);
        }
        for addr in &addrs {
            TcpEndpoint::connect(&addr.to_string())?
                .call(Request::new(Opcode::Ping, bytes::Bytes::new()))?
                .into_result()?;
        }
        // The directories the daemons made at start-up; what they make
        // per file later is placed relative to these.
        flag_top_level(root);
        Ok(Deployment {
            daemons,
            addrs,
            config,
        })
    }

    fn endpoints(&self, transport: Transport) -> Result<Vec<Arc<dyn Endpoint>>> {
        match transport {
            Transport::Tcp => self
                .addrs
                .iter()
                .map(|a| TcpEndpoint::connect(&a.to_string()).map(|e| e as Arc<dyn Endpoint>))
                .collect(),
            Transport::Inproc => Ok(self.daemons.iter().map(|d| d.endpoint()).collect()),
        }
    }

    /// One mount, as one rank's process would make it.
    pub fn mount(&self, transport: Transport) -> Result<GekkoClient> {
        GekkoClient::mount(self.endpoints(transport)?, &self.config)
    }

    /// One mount whose endpoints record rpc spans into the returned
    /// logs, one per daemon.
    pub fn mount_traced(
        &self,
        transport: Transport,
    ) -> Result<(GekkoClient, Vec<Arc<Mutex<RpcLog>>>)> {
        let (endpoints, logs) = self
            .endpoints(transport)?
            .into_iter()
            .enumerate()
            .map(|(node, ep)| TracedEndpoint::wrap(ep, node))
            .unzip();
        Ok((GekkoClient::mount(endpoints, &self.config)?, logs))
    }

    /// Orderly shutdown of every daemon.
    pub fn down(self) {
        for d in &self.daemons {
            d.shutdown();
        }
    }
}

/// Everything `setup_s` covers: daemons spawned and listening, ping
/// handshake, one mount per rank plus the observer, the work directory.
pub struct Setup {
    /// The daemons.
    pub deployment: Deployment,
    /// One mount per rank.
    pub ranks: Vec<GekkoClient>,
    /// Mount used only to fetch daemon counters.
    pub observer: GekkoClient,
}

impl Setup {
    /// Deploy under `root` and mount once per rank over TCP.
    pub fn run(root: &Path, config: ClusterConfig) -> Result<Setup> {
        // Daemon threads inherit the CPU of the thread that spawns
        // them; so do the ranks and each mount's connection threads.
        let placement = Placement::get();
        if let Some(p) = placement {
            pin_current_thread(p.daemons);
        }
        let deployment = Deployment::up(root, config)?;
        if let Some(p) = placement {
            pin_current_thread(p.clients);
        }
        let ranks = (0..RANKS)
            .map(|_| deployment.mount(Transport::Tcp))
            .collect::<Result<Vec<_>>>()?;
        let observer = deployment.mount(Transport::Tcp)?;
        match ranks[0].mkdir(WORK_DIR, 0o755) {
            Ok(()) | Err(GkfsError::Exists) => {}
            Err(e) => return Err(e),
        }
        Ok(Setup {
            deployment,
            ranks,
            observer,
        })
    }

    /// Unmount and shut the daemons down.
    pub fn teardown(self) {
        drop(self.ranks);
        drop(self.observer);
        self.deployment.down();
    }
}
