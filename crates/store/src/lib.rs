//! # mlpeer-store — the durable epoch store
//!
//! Log-structured persistence for published serving snapshots: every
//! epoch the serving layer publishes is appended — as a checksummed,
//! length-prefixed record holding the snapshot's deterministic parts
//! plus the [`mlpeer::live::LinkDelta`] that produced it — to a
//! segmented, append-only on-disk log. On boot the log is replayed to
//! recover the full epoch history (truncating a torn tail to the last
//! valid record), which is what makes `--data-dir` restarts
//! byte-identical and `?at=<epoch>` time travel possible upstream in
//! `mlpeer-serve`.
//!
//! Layering:
//!
//! * [`codec`] — the hand-rolled little-endian binary encoding of
//!   [`codec::PersistedSnapshot`] and deltas (the vendored
//!   `serde_json` stand-in cannot parse JSON back, so JSON is not an
//!   option for durable state).
//! * [`log`] — record framing, segment files, [`log::EpochLog`]
//!   (append / recover / read / fold).
//!
//! The crate is I/O + encoding only: it knows nothing about HTTP,
//! ETags, or body caches. `mlpeer-serve` owns the mapping between its
//! `Snapshot` type and [`codec::PersistedSnapshot`], and wraps
//! [`log::EpochLog`] (whose appends take `&mut self`) in its own lock.
//!
//! Segments are read with positional reads (`FileExt::read_exact_at`),
//! so the crate needs no `unsafe`.

#![forbid(unsafe_code)]

pub mod codec;
pub mod log;

pub use codec::{CodecError, PersistedSnapshot, Reader, Writer};
pub use log::{EpochLog, LogStats, StoreConfig};
