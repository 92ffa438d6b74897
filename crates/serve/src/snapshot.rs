//! Immutable, versioned views of one inference run.
//!
//! A [`Snapshot`] owns everything a query needs — the link set, the
//! [`LinkIndex`] built over it, IXP names, and run provenance — and is
//! only ever shared as `Arc<Snapshot>`: once published it never
//! mutates, so readers hold a consistent view for as long as they keep
//! the `Arc`, across any number of store swaps.
//!
//! The **ETag is content-addressed**: an FxHash of the canonical JSON
//! of the link set and announcement corpus, written straight from them
//! by [`crate::json::JsonWriter`] (the bytes `mlpeer::report::to_json`
//! prints for the same pair, sorted keys and all). Two harvests that
//! infer the same links produce the same ETag even across epochs and
//! process restarts, so HTTP caches and `If-None-Match` revalidation
//! survive refreshes that change nothing.

use std::collections::BTreeMap;
use std::hash::Hasher;

use mlpeer::hash::FxHasher;
use mlpeer::index::{Announcement, LinkIndex};
use mlpeer::infer::{MlpLinkSet, Observation};
use mlpeer::passive::PassiveStats;
use mlpeer::pipeline::{self, PipelineRun, Scale};
use mlpeer::validate::cross::{CorpusConfig, CorpusFold, ValidationReport};
use mlpeer_ixp::ixp::IxpId;
use mlpeer_ixp::Ecosystem;

use crate::json::{export_policy, JsonWriter};

/// One immutable, indexed view of the inference results.
#[derive(Debug)]
pub struct Snapshot {
    /// Monotone version, stamped by [`crate::SnapshotStore::publish`]
    /// (the initial snapshot is epoch 0).
    pub epoch: u64,
    /// Content hash of the deterministic JSON of the link set and
    /// announcements (no surrounding quotes; the HTTP layer adds them).
    pub etag: String,
    /// The scale word the run was generated at ("tiny", "small", …).
    pub scale: String,
    /// The run's RNG seed.
    pub seed: u64,
    /// IXP names, for human-readable responses.
    pub names: BTreeMap<IxpId, String>,
    /// The inferred link set.
    pub links: MlpLinkSet,
    /// O(result) query indexes over `links` and the announcements.
    pub index: LinkIndex,
    /// Observations the run folded (passive + active).
    pub observation_count: usize,
    /// Unique links across IXPs, counted once from the index (the
    /// full `unique_links()` collect is O(total links) — too hot to
    /// redo per request).
    pub unique_link_count: usize,
    /// Distinct ASNs involved in any link: the index's member count.
    pub distinct_asn_count: usize,
    /// Passive-pipeline statistics of the producing harvest.
    pub passive_stats: PassiveStats,
    /// IRR/RPKI cross-validation of the inferred links (`/v1/validate`).
    /// A pure function of `(eco, links, observations)`, so the sharded
    /// and distributed harvests inherit byte-identity for free; empty
    /// (all-zero) when the producing path skipped validation.
    pub validation: ValidationReport,
    /// Pre-rendered GET bodies, built once here so the serve hot path
    /// is a lookup + memcpy (see [`crate::cache::BodyCache`]).
    pub cache: crate::cache::BodyCache,
}

impl Snapshot {
    /// Build a snapshot (index construction + ETag) from one pipeline
    /// run's outputs and its cross-validation report, pre-rendering
    /// every addressable GET body — `/v1/validate` included — into the
    /// [`crate::cache::BodyCache`]. The epoch starts at 0; publishing
    /// through a [`crate::SnapshotStore`] re-stamps it. Callers without
    /// a report pass `ValidationReport::default()`.
    #[allow(clippy::too_many_arguments)]
    pub fn build_validated(
        scale: &str,
        seed: u64,
        names: BTreeMap<IxpId, String>,
        links: MlpLinkSet,
        observations: &[Observation],
        passive_stats: PassiveStats,
        validation: ValidationReport,
    ) -> Snapshot {
        let mut snapshot = Snapshot::build_uncached_validated(
            scale,
            seed,
            names,
            links,
            observations,
            passive_stats,
            validation,
        );
        // Render every addressable body once, at build time. Safe to do
        // before the store stamps the epoch: ETag-addressed bodies never
        // mention the epoch.
        snapshot.cache = crate::cache::BodyCache::build(&snapshot);
        snapshot
    }

    /// [`build_validated`](Snapshot::build_validated) without the body
    /// pre-render: the shape live-mode tick publishes have (the tick
    /// assembles it straight from its inferencer's announcement set),
    /// where a per-link delta must not pay an O(announcement-corpus)
    /// render.
    /// Every endpoint falls back to rendering live on a cache miss, so
    /// the served bytes are identical — only the per-request cost
    /// differs.
    #[allow(clippy::too_many_arguments)]
    pub fn build_uncached_validated(
        scale: &str,
        seed: u64,
        names: BTreeMap<IxpId, String>,
        links: MlpLinkSet,
        observations: &[Observation],
        passive_stats: PassiveStats,
        validation: ValidationReport,
    ) -> Snapshot {
        let announcements = mlpeer::index::scan::announcements(&links, observations);
        Snapshot::assemble(SnapshotParts {
            epoch: 0,
            scale: scale.to_string(),
            seed,
            names,
            links,
            announcements,
            observation_count: observations.len(),
            passive_stats,
            validation,
        })
    }

    /// Build a full serving snapshot from its deterministic parts — the
    /// batch boot and live bootstrap path, and the durable-store
    /// recovery and `?at=` time-travel path. The index comes back via
    /// [`LinkIndex::build_from_announcements`] and the ETag via the
    /// same hash [`Snapshot::build_validated`] uses, so a recovered snapshot
    /// serves byte-identical bodies and ETags to the one originally
    /// published (the caller re-verifies the stored ETag against the
    /// rebuilt one as the end-to-end integrity check).
    pub fn from_parts(parts: SnapshotParts) -> Snapshot {
        let mut snapshot = Snapshot::assemble(parts);
        snapshot.cache = crate::cache::BodyCache::build(&snapshot);
        snapshot
    }

    /// The one assembly behind every constructor: the index and the
    /// ETag from one announcement set, the link counts, and an empty
    /// body cache. The live tick calls it directly with the set its
    /// inferencer holds, so no observation list is built or scanned.
    pub(crate) fn assemble(parts: SnapshotParts) -> Snapshot {
        let SnapshotParts {
            epoch,
            scale,
            seed,
            names,
            links,
            announcements,
            observation_count,
            passive_stats,
            validation,
        } = parts;
        let index = LinkIndex::build_from_announcements(&links, announcements);
        let etag = etag_of(&links, index.announcements());
        Snapshot {
            epoch,
            etag,
            scale,
            seed,
            names,
            links,
            unique_link_count: index.unique_link_count(),
            distinct_asn_count: index.member_count(),
            index,
            observation_count,
            passive_stats,
            validation,
            cache: crate::cache::BodyCache::default(),
        }
    }

    /// Convenience: names map from a generated ecosystem.
    pub fn names_of(eco: &Ecosystem) -> BTreeMap<IxpId, String> {
        eco.ixps.iter().map(|x| (x.id, x.name.clone())).collect()
    }

    /// Run the serving pipeline over `eco` and snapshot the result —
    /// the one-call path the binary's batch boot and the end-to-end
    /// tests share.
    pub fn of_pipeline(eco: &Ecosystem, scale: Scale, seed: u64) -> Snapshot {
        Snapshot::of_run(
            eco,
            scale,
            seed,
            pipeline::run(eco, seed, pipeline::harvest_sharded),
        )
    }

    /// [`of_pipeline`](Snapshot::of_pipeline) with the passive harvest
    /// distributed across worker processes per `cfg` — the
    /// `--workers=N` boot path. Byte-identical to the serial variant on
    /// the same `(eco, seed)`: only the harvest's execution strategy
    /// differs, never its fold (see `mlpeer_dist`).
    pub fn of_pipeline_dist(
        eco: &Ecosystem,
        scale: Scale,
        seed: u64,
        cfg: &mlpeer_dist::DistConfig,
        stats: &mlpeer_dist::DistStats,
    ) -> Snapshot {
        let run = pipeline::run(eco, seed, |prep| {
            mlpeer_dist::harvest_passive_dist(scale.word(), seed, prep, cfg, stats)
        });
        Snapshot::of_run(eco, scale, seed, run)
    }

    /// Validate one pipeline run and snapshot it, the way the live
    /// bootstrap does: one announcement scan feeds the registry fold's
    /// report, the index and the ETag. The run's substrates are dropped
    /// first: the snapshot keeps only the links and what it derives
    /// from the observations.
    fn of_run(eco: &Ecosystem, scale: Scale, seed: u64, run: PipelineRun<'_>) -> Snapshot {
        let PipelineRun {
            prep,
            observations,
            passive_stats,
            links,
            ..
        } = run;
        drop(prep);
        let announcements = mlpeer::index::scan::announcements(&links, &observations);
        let validation =
            CorpusFold::derive(eco, &CorpusConfig::seeded(seed)).report(&links, &announcements);
        Snapshot::from_parts(SnapshotParts {
            epoch: 0,
            scale: scale.word().to_string(),
            seed,
            names: Snapshot::names_of(eco),
            links,
            announcements,
            observation_count: observations.len(),
            passive_stats,
            validation,
        })
    }

    /// The IXP's name, or a stable placeholder for unknown ids.
    pub fn name(&self, ixp: IxpId) -> &str {
        self.names.get(&ixp).map(String::as_str).unwrap_or("?")
    }
}

/// The deterministic parts the durable store persists for one epoch —
/// everything [`Snapshot::from_parts`] needs to rebuild the serving
/// snapshot (index, body cache, content ETag) byte-identically.
#[derive(Debug, Clone)]
pub struct SnapshotParts {
    /// The epoch the snapshot served as.
    pub epoch: u64,
    /// Scale word of the producing run.
    pub scale: String,
    /// RNG seed of the producing run.
    pub seed: u64,
    /// IXP names.
    pub names: BTreeMap<IxpId, String>,
    /// The inferred link set.
    pub links: MlpLinkSet,
    /// The covered-member announcement set — exactly
    /// [`LinkIndex::announcements`] of the original snapshot's index
    /// (sorted and deduplicated; any other order is sorted on build).
    pub announcements: Vec<Announcement>,
    /// Observations the producing run folded.
    pub observation_count: usize,
    /// Passive-pipeline statistics of the producing harvest.
    pub passive_stats: PassiveStats,
    /// Cross-validation report of the producing run (persisted, not
    /// recomputed: recovery has no ecosystem to re-derive the corpus
    /// from).
    pub validation: ValidationReport,
}

/// The content hash behind the ETag: FxHash over the canonical JSON of
/// the link set plus the deduplicated announcement corpus. Every
/// constructor reaches it through [`Snapshot::assemble`], so the build
/// and recovery paths can never drift.
///
/// The corpus is the pair `(links, announcements)` in the serde
/// derive's shapes:
/// `[{"covered": …, "per_ixp": …, "policies": …}, [[prefix, ixp, asn], …]]`.
/// It streams through a bounded buffer: every [`ETAG_FLUSH`] bytes the
/// writer hands its whole 8-byte words to the hasher, which gives the
/// hash of the document in one piece because `FxHasher::write` pads
/// only the last partial word of each call.
fn etag_of(links: &MlpLinkSet, announcements: &[Announcement]) -> String {
    let mut h = FxHasher::default();
    let mut w = JsonWriter::with_capacity(ETAG_FLUSH + 1024);
    let mut flush = |w: &mut JsonWriter| {
        if w.as_bytes().len() >= ETAG_FLUSH {
            w.drain_words(|words| h.write(words));
        }
    };
    w.begin_array();
    w.begin_object();
    w.key("covered").begin_array();
    for (&ixp, members) in &links.covered {
        w.begin_array().u64(ixp.0.into()).begin_array();
        for asn in members {
            w.u64(asn.value().into());
        }
        w.end_array().end_array();
        flush(&mut w);
    }
    w.end_array();
    w.key("per_ixp").begin_array();
    for (&ixp, pairs) in &links.per_ixp {
        w.begin_array().u64(ixp.0.into()).begin_array();
        for &(a, b) in pairs {
            w.begin_array();
            w.u64(a.value().into()).u64(b.value().into());
            w.end_array();
            flush(&mut w);
        }
        w.end_array().end_array();
    }
    w.end_array();
    w.key("policies").begin_array();
    for (&(ixp, asn), policy) in &links.policies {
        w.begin_array().begin_array();
        w.u64(ixp.0.into()).u64(asn.value().into());
        w.end_array();
        export_policy(&mut w, Some(policy));
        w.end_array();
        flush(&mut w);
    }
    w.end_array();
    w.end_object();
    w.begin_array();
    for &(prefix, ixp, asn) in announcements {
        w.begin_array();
        w.cidr(prefix).u64(ixp.0.into()).u64(asn.value().into());
        w.end_array();
        flush(&mut w);
    }
    w.end_array();
    w.end_array();
    h.write(&w.finish());
    format!("{:016x}", h.finish())
}

/// Bytes the ETag writer buffers before it hashes them: small enough
/// to stay in cache, large enough that draining is rare.
const ETAG_FLUSH: usize = 32 * 1024;

#[cfg(test)]
mod tests {
    use super::*;
    use mlpeer::passive::PassiveStats;
    use mlpeer::validate::cross::ValidationReport;

    fn tiny_inputs() -> (MlpLinkSet, Vec<Observation>) {
        crate::testutil::tiny_inputs(3)
    }

    #[test]
    fn etag_is_content_addressed_and_stable() {
        let (links, observations) = tiny_inputs();
        let names: BTreeMap<IxpId, String> = [(IxpId(0), "DE-CIX".to_string())].into();
        let a = Snapshot::build_validated(
            "tiny",
            7,
            names.clone(),
            links.clone(),
            &observations,
            PassiveStats::default(),
            ValidationReport::default(),
        );
        let b = Snapshot::build_validated(
            "tiny",
            7,
            names.clone(),
            links.clone(),
            &observations,
            PassiveStats::default(),
            ValidationReport::default(),
        );
        assert_eq!(a.etag, b.etag, "same content, same ETag");
        assert_eq!(a.etag.len(), 16);

        // Different content must change the ETag.
        let fewer = Snapshot::build_validated(
            "tiny",
            7,
            names,
            links,
            &observations[..2],
            PassiveStats::default(),
            ValidationReport::default(),
        );
        assert_ne!(a.etag, fewer.etag);
    }

    #[test]
    fn from_parts_rebuilds_byte_identically() {
        let (links, observations) = tiny_inputs();
        let original = Snapshot::build_validated(
            "tiny",
            7,
            [(IxpId(0), "DE-CIX".to_string())].into(),
            links,
            &observations,
            PassiveStats::default(),
            ValidationReport::default(),
        );
        let rebuilt = Snapshot::from_parts(SnapshotParts {
            epoch: 3,
            scale: original.scale.clone(),
            seed: original.seed,
            names: original.names.clone(),
            links: original.links.clone(),
            announcements: original.index.announcements().to_vec(),
            observation_count: original.observation_count,
            passive_stats: original.passive_stats.clone(),
            validation: original.validation.clone(),
        });
        assert_eq!(rebuilt.epoch, 3);
        assert_eq!(
            rebuilt.etag, original.etag,
            "content hash survives the round trip"
        );
        // Every addressable body renders byte-identically.
        assert_eq!(
            crate::api::render_ixps(&rebuilt),
            crate::api::render_ixps(&original)
        );
        assert_eq!(
            crate::api::render_ixp_links(&rebuilt, IxpId(0)),
            crate::api::render_ixp_links(&original, IxpId(0))
        );
        for &asn in original.index.members() {
            assert_eq!(
                crate::api::render_member(&rebuilt, asn),
                crate::api::render_member(&original, asn),
                "AS{}",
                asn.value()
            );
        }
        for p in original.index.announced_prefixes() {
            assert_eq!(
                crate::api::render_prefix(&rebuilt, &p),
                crate::api::render_prefix(&original, &p),
                "{p}"
            );
        }
    }

    #[test]
    fn snapshot_carries_consistent_counts() {
        let (links, observations) = tiny_inputs();
        let snap = Snapshot::build_validated(
            "tiny",
            7,
            [(IxpId(0), "DE-CIX".to_string())].into(),
            links.clone(),
            &observations,
            PassiveStats::default(),
            ValidationReport::default(),
        );
        assert_eq!(snap.epoch, 0);
        assert_eq!(snap.observation_count, 3);
        assert_eq!(snap.index.links_total(), links.per_ixp_total());
        assert_eq!(snap.name(IxpId(0)), "DE-CIX");
        assert_eq!(snap.name(IxpId(9)), "?");
        assert_eq!(snap.distinct_asn_count, 3);
        assert_eq!(snap.unique_link_count, 3);
    }
}
