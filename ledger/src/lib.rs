//! `gkfs-ledger`: the repository's benchmark.
//!
//! ```text
//! gkfs-ledger --workload W --seed N --seconds S --trace 0|1   one run of one workload
//! gkfs-ledger all [--seed N] [--seconds S]                    every workload, both kinds of run
//! gkfs-ledger aa  [--seed N] [--seconds S]                    does the benchmark agree with itself?
//! ```
//!
//! A run deploys 2 disk-backed daemons on TCP loopback, drives them
//! from 2 closed-loop ranks, checks every result, prints every metric
//! by name with its unit, and ends with one JSON line. See `README.md`.

pub mod cli;
pub mod counters;
pub mod deploy;
pub mod json;
pub mod measure;
pub mod probes;
pub mod report;
pub mod runner;
pub mod sizes;
pub mod suite;
pub mod trace;
pub mod workloads;
