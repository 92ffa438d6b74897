//! The publish-time pre-rendered body cache.
//!
//! Snapshot-addressed GET bodies are pure functions of the snapshot
//! content — the same property that makes the content ETag work — so
//! rendering them per request is wasted work under read-heavy traffic.
//! [`BodyCache`] renders every addressable body **once, when the
//! snapshot is built** (`/v1/ixps`, `/v1/validate`, every
//! `/v1/ixp/{id}/links`, every linked `/v1/member/{asn}`, every
//! *announced* `/v1/prefix/{p}`) through the same `api::render_*`
//! functions the live fallback calls, each writing its JSON straight
//! into the body's buffer ([`crate::json::JsonWriter`]), and the
//! request path becomes a lookup plus one memcpy into the response.
//!
//! Storage follows the repo's dense-id discipline
//! ([`mlpeer::intern`]): member bodies sit in a flat `Vec` behind an
//! [`AsnTable`] and prefix bodies behind a [`PrefixTable`], so a cache
//! hit is one interning probe plus a `Vec` index; per-IXP bodies index
//! a dense `Vec` by the (generator-dense) `IxpId` directly.
//!
//! Un-announced CIDR queries (aggregates, absent prefixes — an
//! unbounded key space) still render live; everything the index can
//! enumerate is cached. Total cache size is linear in the announcement
//! corpus: each announcement contributes to at most its own exact body,
//! ≤ 32 covering bodies (one per parent-chain hop) and the covered
//! section of announced ancestors — no quadratic blowup.
//!
//! The cache lives inside the immutable [`Snapshot`], so it shares the
//! store's swap semantics: readers of an old epoch keep its bodies, a
//! publish installs a freshly rendered set atomically. Epochs are
//! stamped at publish *after* the build renders bodies — which is safe
//! precisely because ETag-addressed bodies never mention the epoch
//! (asserted by `cached_bodies_match_fresh_renders`). Live-mode tick
//! publishes deliberately skip the pre-render (the shape of
//! [`Snapshot::build_uncached_validated`]) — a per-link delta must
//! not pay an O(corpus) render — and every endpoint falls back to
//! rendering live on a cache miss, so an uncached snapshot serves
//! identical bytes at the cost of one render per request.

use std::sync::Arc;

use mlpeer::intern::{AsnTable, PrefixTable};
use mlpeer_bgp::{Asn, Prefix};
use mlpeer_ixp::ixp::IxpId;

use crate::api;
use crate::snapshot::Snapshot;

/// Pre-rendered JSON bodies for every snapshot-addressed resource.
#[derive(Debug, Default)]
pub struct BodyCache {
    /// The `/v1/ixps` body (`None` in an uncached snapshot).
    ixps: Option<Vec<u8>>,
    /// The `/v1/validate` body (`None` in an uncached snapshot).
    validate: Option<Vec<u8>>,
    /// Dense by `IxpId.0` (generator ids are dense); `None` for gaps.
    ixp_links: Vec<Option<Vec<u8>>>,
    /// Linked-member ASN → dense id → body.
    member_ids: AsnTable,
    member_bodies: Vec<Vec<u8>>,
    /// Announced prefix → dense id → body.
    prefix_ids: PrefixTable,
    prefix_bodies: Vec<Vec<u8>>,
}

impl BodyCache {
    /// Render every addressable body from a fully-built snapshot.
    /// Called once per snapshot by [`Snapshot::build_validated`] or
    /// [`Snapshot::from_parts`]; the snapshot's `cache` field is still
    /// default-empty at that point, which is fine — the renderers only
    /// read the index and link set.
    pub(crate) fn build(snap: &Snapshot) -> BodyCache {
        let mut cache = BodyCache {
            ixps: Some(api::render_ixps(snap)),
            validate: Some(api::render_validate(snap)),
            ..BodyCache::default()
        };
        for &ixp in snap.names.keys() {
            let i = usize::from(ixp.0);
            if i >= cache.ixp_links.len() {
                cache.ixp_links.resize(i + 1, None);
            }
            cache.ixp_links[i] = Some(api::render_ixp_links(snap, ixp));
        }
        for &asn in snap.index.members() {
            let id = cache.member_ids.intern(asn);
            debug_assert_eq!(id.index(), cache.member_bodies.len());
            cache
                .member_bodies
                .push(api::render_member(snap, asn).expect("indexed member has links"));
        }
        for p in snap.index.announced_prefixes() {
            let id = cache.prefix_ids.intern(p);
            debug_assert_eq!(id.index(), cache.prefix_bodies.len());
            cache.prefix_bodies.push(api::render_prefix(snap, &p));
        }
        cache
    }

    /// The `/v1/ixps` body, if pre-rendered.
    pub fn ixps_body(&self) -> Option<&[u8]> {
        self.ixps.as_deref()
    }

    /// The `/v1/validate` body, if pre-rendered.
    pub fn validate_body(&self) -> Option<&[u8]> {
        self.validate.as_deref()
    }

    /// The `/v1/ixp/{id}/links` body for a known IXP.
    pub fn ixp_links_body(&self, ixp: IxpId) -> Option<&[u8]> {
        self.ixp_links
            .get(usize::from(ixp.0))?
            .as_ref()
            .map(Vec::as_slice)
    }

    /// The `/v1/member/{asn}` body for a linked member.
    pub fn member_body(&self, asn: Asn) -> Option<&[u8]> {
        let id = self.member_ids.get(asn)?;
        Some(&self.member_bodies[id.index()])
    }

    /// The `/v1/prefix/{p}` body for an announced prefix.
    pub fn prefix_body(&self, prefix: &Prefix) -> Option<&[u8]> {
        let id = self.prefix_ids.get(*prefix)?;
        Some(&self.prefix_bodies[id.index()])
    }

    /// Number of pre-rendered bodies.
    pub fn body_count(&self) -> usize {
        usize::from(self.ixps.is_some())
            + usize::from(self.validate.is_some())
            + self.ixp_links.iter().flatten().count()
            + self.member_bodies.len()
            + self.prefix_bodies.len()
    }

    /// Total pre-rendered bytes.
    pub fn byte_len(&self) -> usize {
        self.ixps.as_ref().map(Vec::len).unwrap_or(0)
            + self.validate.as_ref().map(Vec::len).unwrap_or(0)
            + self.ixp_links.iter().flatten().map(Vec::len).sum::<usize>()
            + self.member_bodies.iter().map(Vec::len).sum::<usize>()
            + self.prefix_bodies.iter().map(Vec::len).sum::<usize>()
    }
}

/// Which pre-rendered body a [`CacheSlice`] points at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheKey {
    /// The `/v1/ixps` body.
    Ixps,
    /// The `/v1/validate` body.
    Validate,
    /// One `/v1/ixp/{id}/links` body.
    IxpLinks(IxpId),
    /// One `/v1/member/{asn}` body.
    Member(Asn),
    /// One `/v1/prefix/{p}` body.
    Prefix(Prefix),
}

/// A zero-copy view of one cached body: the `Arc<Snapshot>` pins the
/// cache storage, so the slice stays valid for as long as the response
/// is in flight — across store swaps and partial-write continuations —
/// without copying the body out of the cache.
pub struct CacheSlice {
    snap: Arc<Snapshot>,
    key: CacheKey,
}

impl CacheSlice {
    /// A slice for `key` in `snap`'s cache, or `None` on a cache miss
    /// (the caller falls back to a live render).
    pub fn new(snap: &Arc<Snapshot>, key: CacheKey) -> Option<CacheSlice> {
        probe(snap, key)?;
        Some(CacheSlice {
            snap: Arc::clone(snap),
            key,
        })
    }
}

fn probe(snap: &Snapshot, key: CacheKey) -> Option<&[u8]> {
    match key {
        CacheKey::Ixps => snap.cache.ixps_body(),
        CacheKey::Validate => snap.cache.validate_body(),
        CacheKey::IxpLinks(ixp) => snap.cache.ixp_links_body(ixp),
        CacheKey::Member(asn) => snap.cache.member_body(asn),
        CacheKey::Prefix(p) => snap.cache.prefix_body(&p),
    }
}

impl AsRef<[u8]> for CacheSlice {
    fn as_ref(&self) -> &[u8] {
        // The constructor verified the hit and the snapshot is
        // immutable, so the re-probe cannot miss.
        probe(&self.snap, self.key).expect("cache entry verified at construction")
    }
}

impl std::fmt::Debug for CacheSlice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CacheSlice")
            .field("key", &self.key)
            .field("len", &self.as_ref().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap() -> Snapshot {
        crate::testutil::snapshot_with(4, 11)
    }

    /// A `CacheSlice` yields the cached bytes, pins them across a drop
    /// of every other handle, and misses stay `None`.
    #[test]
    fn cache_slice_pins_and_matches() {
        let snap = Arc::new(snap());
        let expect = snap.cache.ixps_body().unwrap().to_vec();
        let slice = CacheSlice::new(&snap, CacheKey::Ixps).expect("hit");
        let member = CacheSlice::new(&snap, CacheKey::Member(Asn(1))).expect("hit");
        drop(snap); // the slices keep the snapshot alive
        assert_eq!(slice.as_ref(), &expect[..]);
        assert!(!member.as_ref().is_empty());
        assert!(format!("{slice:?}").contains("Ixps"));

        let uncached = Arc::new(crate::testutil::snapshot_with_uncached(4, 11));
        assert!(CacheSlice::new(&uncached, CacheKey::Ixps).is_none());
        assert!(CacheSlice::new(&uncached, CacheKey::Member(Asn(999))).is_none());
    }

    /// The cache contract: every pre-rendered body is byte-identical to
    /// a fresh render from the same snapshot, and coverage is complete
    /// — every IXP, every linked member, every announced prefix.
    #[test]
    fn cached_bodies_match_fresh_renders() {
        let snap = snap();
        assert_eq!(
            snap.cache.ixps_body().expect("ixps cached"),
            &api::render_ixps(&snap)[..]
        );
        assert_eq!(
            snap.cache.validate_body().expect("validate cached"),
            &api::render_validate(&snap)[..]
        );
        for &ixp in snap.names.keys() {
            assert_eq!(
                snap.cache.ixp_links_body(ixp).expect("ixp cached"),
                &api::render_ixp_links(&snap, ixp)[..],
                "ixp {ixp:?}"
            );
        }
        let members = snap.index.members().to_vec();
        assert!(!members.is_empty());
        for asn in members {
            assert_eq!(
                snap.cache.member_body(asn).expect("member cached"),
                &api::render_member(&snap, asn).unwrap()[..],
                "member {asn}"
            );
        }
        let prefixes = snap.index.announced_prefixes();
        assert_eq!(prefixes.len(), snap.index.prefix_count());
        for p in prefixes {
            assert_eq!(
                snap.cache.prefix_body(&p).expect("prefix cached"),
                &api::render_prefix(&snap, &p)[..],
                "prefix {p}"
            );
        }
    }

    #[test]
    fn misses_stay_misses() {
        let snap = snap();
        assert!(snap.cache.ixp_links_body(IxpId(9)).is_none());
        assert!(snap.cache.member_body(Asn(999)).is_none());
        let absent: Prefix = "192.0.2.0/24".parse().unwrap();
        assert!(snap.cache.prefix_body(&absent).is_none());
        // An aggregate covering announced prefixes is still a miss —
        // only announced prefixes are enumerable.
        let aggregate: Prefix = "10.0.0.0/8".parse().unwrap();
        assert!(snap.cache.prefix_body(&aggregate).is_none());
    }

    #[test]
    fn counters_cover_all_bodies() {
        let snap = snap();
        // 1 (ixps) + 1 (validate) + 1 IXP + 4 members + 4 announced
        // prefixes.
        assert_eq!(snap.cache.body_count(), 11);
        assert!(snap.cache.byte_len() > 0);
    }

    /// An uncached snapshot (the live-tick publish shape) serves the
    /// same bytes through the endpoints' live-render fallback.
    #[test]
    fn uncached_snapshot_is_empty_but_equivalent() {
        let cached = snap();
        let uncached = crate::testutil::snapshot_with_uncached(4, 11);
        assert_eq!(uncached.cache.body_count(), 0);
        assert_eq!(uncached.cache.byte_len(), 0);
        assert!(uncached.cache.ixps_body().is_none());
        assert_eq!(cached.etag, uncached.etag, "content identical");
        // Fallback renders from the uncached snapshot equal the cached
        // bodies bit for bit.
        assert_eq!(
            cached.cache.ixps_body().unwrap(),
            &api::render_ixps(&uncached)[..]
        );
        for &asn in cached.index.members() {
            assert_eq!(
                cached.cache.member_body(asn).unwrap(),
                &api::render_member(&uncached, asn).unwrap()[..]
            );
        }
    }
}
