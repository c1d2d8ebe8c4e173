//! # gkfs-workloads — mdtest and IOR, reimplemented as drivers
//!
//! The paper's evaluation uses two unmodified microbenchmarks from the
//! HPC I/O community ([hpc/ior](https://github.com/hpc/ior)):
//!
//! * **mdtest** (§IV-A): every process creates, stats, and removes
//!   N zero-byte files in a single shared directory (or one directory
//!   per process) — "an important workload in many HPC applications
//!   and among the most difficult workloads for a general-purpose
//!   PFS".
//! * **IOR** (§IV-B): every process writes and reads a fixed volume
//!   with a given transfer size — sequentially or randomly, to its own
//!   file (file-per-process) or to one shared file.
//!
//! These drivers run against the *real* file system through
//! [`gekkofs::GekkoClient`]; the `gkfs-sim` crate models the same
//! workloads at 512-node scale. Each simulated "process" is a thread
//! with its own mounted client, and every driver runs its phases
//! through the one rank runner in [`ranks`]: start gate, wall-clock
//! timing, first error wins — exactly like MPI ranks between barriers
//! in the original tools. The `gkfs-workload` binary runs the same
//! drivers against a live TCP deployment.

#![warn(missing_docs)]

pub mod ior;
pub mod mdtest;
pub mod ranks;
pub mod smallfile;
pub mod trace;

pub use ior::{run_ior, verify_ior, IorConfig, IorResult};
pub use mdtest::{run_mdtest, MdtestConfig, MdtestResult, MetaMode};
pub use ranks::Ranks;
pub use smallfile::{run_smallfile, SmallFileConfig, SmallFileResult};
pub use trace::{checkpoint_trace, parse_trace, replay_trace, ReplayResult, TraceEntry, TraceOp};
