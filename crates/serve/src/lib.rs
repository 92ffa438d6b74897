//! # `mlpeer-serve` — indexed snapshot store and HTTP query API
//!
//! The pipeline's artifact — the multilateral peering link set per IXP,
//! member, and prefix — is exactly what operators and researchers want
//! to *query*. This crate turns the one-shot report into a long-lived
//! service:
//!
//! * **index layer** — [`mlpeer::index::LinkIndex`]: each member's
//!   per-IXP peers as a slice of one flat array, and the announcement
//!   set sorted for binary-searched prefix lookups, so lookups are
//!   O(result) instead of linear scans;
//! * **versioned snapshot store** — immutable [`Snapshot`]s behind
//!   [`SnapshotStore`], swapped atomically so in-flight readers are
//!   never blocked or torn while a new epoch is published
//!   (content-addressed ETag from deterministic JSON);
//! * **publish-time body cache** — [`cache::BodyCache`]: every
//!   snapshot-addressed GET body (ixps, validate, per-IXP links,
//!   per-member, announced prefixes) is rendered once when a batch
//!   snapshot is built, so the 200 hot path is a lookup + memcpy
//!   instead of a JSON render;
//! * **one JSON writer** — [`json::JsonWriter`] writes every served
//!   body and the ETag corpus straight into bytes, in the canonical
//!   pretty format, with no intermediate value tree;
//! * **one HTTP/1.1 front end** — the epoll [`reactor`] (one event
//!   loop, vectored zero-copy writes, massive keep-alive
//!   concurrency, push delivery for `/v1/changes`) behind a
//!   [`ServerHandle`], exposing the JSON endpoints documented in the
//!   README: `/healthz`, `/v1/ixps`, `/v1/ixp/{id}/links`,
//!   `/v1/member/{asn}`, `/v1/prefix/{p}`, `/v1/stats`, `/v1/changes`
//!   — the router's exact bytes on the wire (asserted by the
//!   `engine_equivalence` test);
//! * an in-repo [`loadgen`] (closed-loop sweeps plus a keep-alive
//!   hold mode for connection-count scaling) whose results the
//!   `serve_load` bench records to `BENCH_serve.json`;
//! * **live mode** — [`live`]: a churn-driven incremental loop
//!   ([`mlpeer::live::LiveInferencer`]) that applies per-event link
//!   deltas and publishes a new epoch *only when the link set moved*,
//!   with the per-epoch [`delta::ChangeLog`] ring behind
//!   `GET /v1/changes?since=N` (and its documented 410 full-resync
//!   signal);
//! * **durable epoch store** — [`durable::DurableStore`] over the
//!   `mlpeer_store` append-only segment log: with `--data-dir` every
//!   published epoch persists (snapshot parts + delta), a restart
//!   recovers the full history byte-identically (ETags included),
//!   snapshot-addressed endpoints answer `?at=<epoch>` time-travel
//!   queries, and `/v1/changes?since=N` reaches back to the first
//!   stored epoch — a 410 means the epoch is not in the log (no
//!   `--data-dir`, an epoch that predates it, or one dropped while the
//!   durability breaker was open).
//!
//! The `mlpeer-serve` binary boots the whole stack at any
//! [`mlpeer::pipeline::Scale`]: by default it runs (or, from a data
//! directory, resumes) the pipeline once and serves that snapshot;
//! `--live` adds the incremental loop.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod cache;
pub mod delta;
pub mod durable;
pub mod health;
pub mod http;
pub mod json;
pub mod live;
pub mod loadgen;
pub mod reactor;
pub mod server;
pub mod snapshot;
pub mod store;

pub use cache::BodyCache;
pub use delta::{ChangeLog, SinceAnswer};
pub use durable::DurableStore;
pub use health::HealthState;
pub use live::{bootstrap, spawn_live_refresher, LiveConfig, LiveLoop, LiveStats};
pub use loadgen::{run_hold_load, run_load, HoldConfig, LoadConfig, LoadReport};
pub use reactor::{spawn_reactor, ReactorConfig, ReactorStats};
pub use server::{ServerHandle, ServerStats};
pub use snapshot::{Snapshot, SnapshotParts};
pub use store::SnapshotStore;

/// Shared test fixture: a one-IXP snapshot whose content is a pure
/// function of `(members, seed)`, so tests can verify loaded views
/// against a re-derived expectation.
#[cfg(test)]
pub(crate) mod testutil {
    use std::collections::BTreeMap;

    use mlpeer::connectivity::{ConnSource, ConnectivityData};
    use mlpeer::infer::{infer_links, MlpLinkSet, Observation, ObservationSource};
    use mlpeer::passive::PassiveStats;
    use mlpeer::validate::cross::ValidationReport;
    use mlpeer_bgp::Asn;
    use mlpeer_ixp::ixp::IxpId;
    use mlpeer_ixp::scheme::RsAction;

    use crate::snapshot::Snapshot;

    /// Members `1..=n` at one IXP, each announcing `10.<m>.0.0/24`
    /// with an open (ALL) policy, plus the inferred link set.
    pub fn tiny_inputs(members: u32) -> (MlpLinkSet, Vec<Observation>) {
        let mut conn = ConnectivityData::default();
        for m in 1..=members {
            conn.record(IxpId(0), Asn(m), ConnSource::LookingGlass);
        }
        let observations: Vec<Observation> = (1..=members)
            .map(|m| Observation {
                ixp: IxpId(0),
                member: Asn(m),
                prefix: format!("10.{m}.0.0/24").parse().unwrap(),
                actions: vec![RsAction::All],
                source: ObservationSource::Passive,
            })
            .collect();
        (infer_links(&conn, &observations), observations)
    }

    /// A built snapshot over [`tiny_inputs`], named "DE-CIX".
    pub fn snapshot_with(members: u32, seed: u64) -> Snapshot {
        let (links, observations) = tiny_inputs(members);
        let names: BTreeMap<IxpId, String> = [(IxpId(0), "DE-CIX".to_string())].into();
        Snapshot::build_validated(
            "tiny",
            seed,
            names,
            links,
            &observations,
            PassiveStats::default(),
            ValidationReport::default(),
        )
    }

    /// [`snapshot_with`] through the cache-less live-tick build path.
    pub fn snapshot_with_uncached(members: u32, seed: u64) -> Snapshot {
        let (links, observations) = tiny_inputs(members);
        let names: BTreeMap<IxpId, String> = [(IxpId(0), "DE-CIX".to_string())].into();
        Snapshot::build_uncached_validated(
            "tiny",
            seed,
            names,
            links,
            &observations,
            PassiveStats::default(),
            ValidationReport::default(),
        )
    }
}
