//! # `mlpeer_dist` — multi-process passive harvest
//!
//! Thread-level sharding breaks even on one core; the next scaling
//! step is across *processes*. This crate reuses the order-insensitive
//! per-shard merge seams of the core inferencer to distribute the
//! batch pipeline's passive harvest ([`harvest_passive_dist`]): the
//! coordinator enumerates the dataset's
//! [`WorkUnit`](mlpeer::passive::WorkUnit)s, partitions them into
//! contiguous weight-balanced shards, and ships each to a worker
//! process that regenerates the dataset from `(scale, seed)` and
//! harvests its slice. Replies fold in shard order, byte-identically
//! to serial `harvest_passive`. Live mode always folds in process.
//!
//! Frames are checksummed and length-prefixed ([`wire`]); a crashed,
//! stalled, corrupt, or duplicate worker is retried, timed out,
//! deduped, or degraded to in-process execution ([`coordinator`] for
//! the invariants) — faults change the speedup, never the answer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coordinator;
pub mod stats;
pub mod wire;
pub mod worker;

pub use coordinator::{default_worker_cmd, harvest_passive_dist, partition_units, DistConfig};
pub use stats::{DistStats, DistStatsSnapshot};
pub use wire::{Fault, PassiveJob, PassiveResult, WireError};
pub use worker::run_worker;

use mlpeer::pipeline::Scale;
use mlpeer_ixp::Ecosystem;

/// Resolve a scale word to a generated ecosystem — the shared
/// vocabulary of coordinator and workers ([`Scale::parse`]). `None`
/// for unknown words.
pub fn eco_for(scale: &str, seed: u64) -> Option<Ecosystem> {
    Scale::parse(scale).map(|s| Ecosystem::generate(s.config(seed)))
}
