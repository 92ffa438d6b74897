//! Query indexes over inference results — the serving layer's read
//! path.
//!
//! The pipeline ends in an [`MlpLinkSet`] plus the observation stream
//! that produced it. Operators query that artifact by *member* ("who
//! does AS X reach over the DE-CIX route server?"), by *IXP*, and by
//! *prefix* ("which IXPs carry prefix P multilaterally?"). A linear
//! scan answers each of those in O(total links) or O(total
//! observations); [`LinkIndex`] answers them in O(result) plus binary
//! searches, from two flat arrays built in linear passes:
//!
//! * **by member** — one offset per member into one shared array of
//!   `(IxpId, Asn)` entries (CSR layout), each member's slice in
//!   `(ixp, peer)` order;
//! * **by prefix** — the announcement set as one sorted, deduplicated
//!   `Vec<Announcement>`. Exact matches are one run of it, covering
//!   matches one run per [`Prefix::parent`] hop, and covered matches
//!   the contiguous `(addr, len)` range between the queried prefix and
//!   its last address.
//!
//! Every indexed query has a linear-scan reference implementation in
//! [`scan`]; the unit tests (and the serve crate's benchmarks) assert
//! the two produce byte-identical results, so the index can never
//! silently drift from the ground truth it accelerates.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

use mlpeer_bgp::{Asn, Prefix};
use mlpeer_ixp::ixp::IxpId;

use crate::infer::{MlpLinkSet, Observation};
use crate::intern::AsnTable;

/// One prefix announcement retained for serving: at `.1`, member `.2`
/// announced prefix `.0` through the route server.
pub type Announcement = (Prefix, IxpId, Asn);

/// Matches for a prefix query, split by specificity.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PrefixMatches {
    /// Announcements of exactly the queried prefix.
    pub exact: BTreeSet<Announcement>,
    /// Announcements of strictly less-specific (covering) prefixes.
    pub covering: BTreeSet<Announcement>,
    /// Announcements of strictly more-specific (covered) prefixes.
    pub covered: BTreeSet<Announcement>,
}

impl PrefixMatches {
    /// Total announcements across all three specificity classes.
    pub fn total(&self) -> usize {
        self.exact.len() + self.covering.len() + self.covered.len()
    }
}

/// [`PrefixMatches`] borrowed from the index: runs of its sorted
/// announcement array, so a renderer walks them in order without
/// collecting anything.
#[derive(Debug, Clone, Default)]
pub struct PrefixRuns<'a> {
    /// Announcements of exactly the queried prefix.
    pub exact: &'a [Announcement],
    /// One run per covering prefix with announcements, shortest prefix
    /// first (so the runs concatenate in sorted order).
    pub covering: Vec<&'a [Announcement]>,
    /// Announcements of strictly more-specific prefixes.
    pub covered: &'a [Announcement],
}

impl PrefixRuns<'_> {
    /// Total announcements across all three specificity classes.
    pub fn total(&self) -> usize {
        self.exact.len() + self.covering.iter().map(|r| r.len()).sum::<usize>() + self.covered.len()
    }
}

/// Inverted indexes over an [`MlpLinkSet`] and its announcement set.
///
/// * **by member** — every IXP the member peers multilaterally at, with
///   its peers there, as one slice of a shared entry array;
/// * **by IXP** — delegated to the link set's own sorted per-IXP maps;
/// * **by prefix** — binary searches over the sorted announcements of
///   covered members.
#[derive(Debug, Clone, Default)]
pub struct LinkIndex {
    /// ASN → dense [`crate::intern::AsnId`] over the linked members,
    /// in first-seen order.
    members: AsnTable,
    /// Member `i`'s entries are `entries[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<usize>,
    /// Every member's `(ixp, peer)` entries; each member's slice is in
    /// `(ixp, peer)` order.
    entries: Vec<(IxpId, Asn)>,
    /// The announcement set, sorted by `(prefix, ixp, member)` and
    /// deduplicated.
    announcements: Vec<Announcement>,
    /// `reach[i]` is the highest last address among
    /// `announcements[..=i]`: a covering walk stops as soon as nothing
    /// before its position reaches the queried prefix's last address.
    reach: Vec<u32>,
    /// Distinct prefixes in `announcements`.
    prefixes: usize,
    links_total: usize,
}

impl LinkIndex {
    /// Build the index. Announcements are restricted to members the
    /// link set covers at the announcement's IXP, so prefix answers
    /// never cite reachability data the inference itself discarded.
    pub fn build(links: &MlpLinkSet, observations: &[Observation]) -> LinkIndex {
        Self::build_from_announcements(links, scan::announcements(links, observations))
    }

    /// Build the index from an already-filtered announcement set — the
    /// live tick, which takes it straight from its inferencer, and the
    /// durable-store recovery path, where the set was persisted (it is
    /// exactly [`LinkIndex::announcements`] of the original index) and
    /// the raw observation stream no longer exists. Feeding
    /// [`scan::announcements`] back through this constructor is
    /// identical to [`LinkIndex::build`]. A set that arrives sorted and
    /// deduplicated (every caller's) is kept as it is; any other is
    /// sorted first.
    pub fn build_from_announcements(
        links: &MlpLinkSet,
        announcements: impl IntoIterator<Item = Announcement>,
    ) -> LinkIndex {
        // Pass 1: intern both ends of every link in first-seen order,
        // count each member's entries, and keep the ids for pass 2.
        let links_total = links.per_ixp_total();
        let mut members = AsnTable::default();
        let mut degree: Vec<usize> = Vec::new();
        let mut ids: Vec<[usize; 2]> = Vec::with_capacity(links_total);
        for pairs in links.per_ixp.values() {
            for &(a, b) in pairs {
                let ends = [a, b].map(|asn| {
                    let id = members.intern(asn).index();
                    if id == degree.len() {
                        degree.push(0);
                    }
                    degree[id] += 1;
                    id
                });
                ids.push(ends);
            }
        }
        let mut offsets = Vec::with_capacity(degree.len() + 1);
        offsets.push(0);
        for d in &degree {
            offsets.push(offsets[offsets.len() - 1] + d);
        }
        // Pass 2: scatter. `(ixp, a < b)` order already gives each
        // member its peers below it, then its peers above it, per IXP
        // in IXP order — so every slice lands sorted.
        let mut cursor = degree;
        cursor.copy_from_slice(&offsets[..offsets.len() - 1]);
        let mut entries = vec![(IxpId(0), Asn(0)); 2 * links_total];
        let mut ids = ids.into_iter();
        for (&ixp, pairs) in &links.per_ixp {
            for (&(a, b), [ia, ib]) in pairs.iter().zip(ids.by_ref()) {
                entries[cursor[ia]] = (ixp, b);
                cursor[ia] += 1;
                entries[cursor[ib]] = (ixp, a);
                cursor[ib] += 1;
            }
        }

        let mut announcements: Vec<Announcement> = announcements.into_iter().collect();
        if !announcements.is_sorted_by(|x, y| x < y) {
            announcements.sort_unstable();
            announcements.dedup();
        }
        let prefixes = announcements.chunk_by(|x, y| x.0 == y.0).count();
        let mut top = 0;
        let reach = announcements
            .iter()
            .map(|a| {
                top = top.max(last_addr(&a.0));
                top
            })
            .collect();
        LinkIndex {
            members,
            offsets,
            entries,
            announcements,
            reach,
            prefixes,
            links_total,
        }
    }

    /// The member's `(ixp, peer)` entries in `(ixp, peer)` order, or
    /// `None` if the member has no inferred multilateral link anywhere.
    pub fn member_links(&self, asn: Asn) -> Option<&[(IxpId, Asn)]> {
        let i = self.members.get(asn)?.index();
        Some(&self.entries[self.offsets[i]..self.offsets[i + 1]])
    }

    /// [`member_links`](LinkIndex::member_links) grouped per IXP (empty
    /// map when absent), shaped exactly like [`scan::member_links`].
    pub fn member_links_owned(&self, asn: Asn) -> BTreeMap<IxpId, BTreeSet<Asn>> {
        let mut out: BTreeMap<IxpId, BTreeSet<Asn>> = BTreeMap::new();
        for &(ixp, peer) in self.member_links(asn).unwrap_or_default() {
            out.entry(ixp).or_default().insert(peer);
        }
        out
    }

    /// The run of announcements of exactly `prefix` within `anns`: one
    /// binary search, then a walk over the run (a few entries: one per
    /// IXP and member announcing it).
    fn run(anns: &[Announcement], prefix: &Prefix) -> Range<usize> {
        let lo = anns.partition_point(|a| a.0 < *prefix);
        lo..lo + anns[lo..].iter().take_while(|a| a.0 == *prefix).count()
    }

    /// All specificity classes of announcements matching `prefix`, as
    /// runs of the sorted announcements.
    pub fn prefix_runs(&self, prefix: &Prefix) -> PrefixRuns<'_> {
        let anns = &self.announcements[..];
        let exact = Self::run(anns, prefix);
        let last = last_addr(prefix);
        // Every covering prefix sorts before `prefix`, and each one
        // before the last: search a shrinking head, until nothing in it
        // reaches `prefix`'s last address.
        let mut covering = Vec::new();
        let mut head = exact.start;
        let mut q = prefix.parent();
        while let Some(p) = q {
            if head == 0 || self.reach[head - 1] < last {
                break;
            }
            let r = Self::run(&anns[..head], &p);
            if !r.is_empty() {
                covering.push(&anns[r.clone()]);
            }
            head = r.start;
            q = p.parent();
        }
        covering.reverse();
        // Past `(addr, len)` of `prefix` up to its last address: only
        // longer prefixes inside it sort there. Shorter or equal ones
        // at the same address sort before it, so they stay out.
        let tail = &anns[exact.end..];
        let covered = &tail[..tail.partition_point(|a| a.0.network_u32() <= last)];
        PrefixRuns {
            exact: &anns[exact],
            covering,
            covered,
        }
    }

    /// All specificity classes of announcements matching `prefix`.
    pub fn prefix_matches(&self, prefix: &Prefix) -> PrefixMatches {
        let runs = self.prefix_runs(prefix);
        PrefixMatches {
            exact: runs.exact.iter().copied().collect(),
            covering: runs.covering.concat().into_iter().collect(),
            covered: runs.covered.iter().copied().collect(),
        }
    }

    /// Members with at least one link.
    pub fn member_count(&self) -> usize {
        self.members.len()
    }

    /// The linked members, in interning (first-seen) order.
    pub fn members(&self) -> &[Asn] {
        self.members.asns()
    }

    /// Unique links across IXPs (equals
    /// `MlpLinkSet::unique_links().len()`): each member's distinct
    /// peers above it, summed.
    pub fn unique_link_count(&self) -> usize {
        let mut peers = Vec::new();
        let mut count = 0;
        for (i, &asn) in self.members().iter().enumerate() {
            let slice = &self.entries[self.offsets[i]..self.offsets[i + 1]];
            if slice.first().map(|e| e.0) == slice.last().map(|e| e.0) {
                // One IXP: the peers are distinct and ascending.
                count += slice.len() - slice.partition_point(|e| e.1 < asn);
            } else {
                peers.clear();
                peers.extend(slice.iter().map(|e| e.1).filter(|&p| p > asn));
                peers.sort_unstable();
                peers.dedup();
                count += peers.len();
            }
        }
        count
    }

    /// Every distinct announced prefix, in `(addr, len)` order — the
    /// set the serving layer's publish-time body cache pre-renders.
    pub fn announced_prefixes(&self) -> Vec<Prefix> {
        self.announcements
            .chunk_by(|x, y| x.0 == y.0)
            .map(|run| run[0].0)
            .collect()
    }

    /// The announcement set, sorted and deduplicated. This is what the
    /// durable store persists per epoch: round-tripping it through
    /// [`LinkIndex::build_from_announcements`] reproduces the index
    /// exactly, so recovered snapshots answer prefix queries (and hash
    /// to content ETags) byte-identically.
    pub fn announcements(&self) -> &[Announcement] {
        &self.announcements
    }

    /// Distinct announced prefixes.
    pub fn prefix_count(&self) -> usize {
        self.prefixes
    }

    /// Announcements in the index.
    pub fn announcement_count(&self) -> usize {
        self.announcements.len()
    }

    /// Per-IXP link total (equals `MlpLinkSet::per_ixp_total`).
    pub fn links_total(&self) -> usize {
        self.links_total
    }
}

/// The last address `prefix` covers.
fn last_addr(prefix: &Prefix) -> u32 {
    prefix.network_u32() | u32::MAX.checked_shr(u32::from(prefix.len())).unwrap_or(0)
}

/// Linear-scan reference implementations of every indexed query. The
/// serving benches measure the index against these; the tests assert
/// byte-identical results.
pub mod scan {
    use super::*;

    /// O(total links): the member's peers per IXP.
    pub fn member_links(links: &MlpLinkSet, asn: Asn) -> BTreeMap<IxpId, BTreeSet<Asn>> {
        let mut out: BTreeMap<IxpId, BTreeSet<Asn>> = BTreeMap::new();
        for (ixp, pairs) in &links.per_ixp {
            for &(a, b) in pairs {
                if a == asn {
                    out.entry(*ixp).or_default().insert(b);
                } else if b == asn {
                    out.entry(*ixp).or_default().insert(a);
                }
            }
        }
        out
    }

    /// O(total observations): the announcement set of covered members,
    /// sorted and deduplicated — the set the index is built from.
    pub fn announcements(links: &MlpLinkSet, observations: &[Observation]) -> Vec<Announcement> {
        let mut out: Vec<Announcement> = observations
            .iter()
            .filter(|o| {
                links
                    .covered
                    .get(&o.ixp)
                    .is_some_and(|c| c.contains(&o.member))
            })
            .map(|o| (o.prefix, o.ixp, o.member))
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// O(total observations): prefix matches by full scan with
    /// [`Prefix::covers`] on both sides.
    pub fn prefix_matches(
        links: &MlpLinkSet,
        observations: &[Observation],
        prefix: &Prefix,
    ) -> PrefixMatches {
        let mut out = PrefixMatches::default();
        for ann in announcements(links, observations) {
            let p = ann.0;
            if p == *prefix {
                out.exact.insert(ann);
            } else if p.covers(prefix) {
                out.covering.insert(ann);
            } else if prefix.covers(&p) {
                out.covered.insert(ann);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connectivity::{ConnSource, ConnectivityData};
    use crate::infer::{infer_links, ObservationSource};
    use mlpeer_ixp::scheme::RsAction;

    fn obs(ixp: u16, member: u32, prefix: &str, actions: Vec<RsAction>) -> Observation {
        Observation {
            ixp: IxpId(ixp),
            member: Asn(member),
            prefix: prefix.parse().unwrap(),
            actions,
            source: ObservationSource::Passive,
        }
    }

    /// Two IXPs, four members, one EXCLUDE, plus an observation for a
    /// member connectivity cannot place (must not enter the index).
    fn fixture() -> (MlpLinkSet, Vec<Observation>) {
        let mut conn = ConnectivityData::default();
        for m in [1u32, 2, 3, 4] {
            conn.record(IxpId(0), Asn(m), ConnSource::LookingGlass);
        }
        for m in [1u32, 2] {
            conn.record(IxpId(1), Asn(m), ConnSource::Website);
        }
        let observations = vec![
            obs(0, 1, "10.1.0.0/24", vec![RsAction::All]),
            obs(0, 1, "10.1.1.0/24", vec![RsAction::All]),
            obs(
                0,
                2,
                "10.2.0.0/16",
                vec![RsAction::All, RsAction::Exclude(Asn(4))],
            ),
            obs(0, 3, "10.2.4.0/24", vec![RsAction::All]),
            obs(0, 4, "0.0.0.0/0", vec![RsAction::All]),
            obs(1, 1, "10.1.0.0/24", vec![RsAction::All]),
            obs(1, 2, "10.2.0.0/16", vec![RsAction::All]),
            obs(0, 99, "10.9.0.0/24", vec![RsAction::All]), // unplaceable
        ];
        let links = infer_links(&conn, &observations);
        (links, observations)
    }

    #[test]
    fn member_lookup_matches_scan_byte_for_byte() {
        let (links, observations) = fixture();
        let index = LinkIndex::build(&links, &observations);
        for asn in 0u32..=100 {
            let fast = index.member_links_owned(Asn(asn));
            let slow = scan::member_links(&links, Asn(asn));
            assert_eq!(fast, slow, "AS{asn}");
            assert_eq!(format!("{fast:?}"), format!("{slow:?}"), "AS{asn} bytes");
        }
        // The fixture actually links members at both IXPs.
        assert!(index
            .member_links(Asn(1))
            .is_some_and(|m| m.chunk_by(|x, y| x.0 == y.0).count() == 2));
    }

    #[test]
    fn prefix_lookup_matches_scan_byte_for_byte() {
        let (links, observations) = fixture();
        let index = LinkIndex::build(&links, &observations);
        for q in [
            "10.1.0.0/24",
            "10.1.0.0/16",
            "10.1.1.128/25",
            "10.2.0.0/16",
            "10.2.4.0/24",
            "10.0.0.0/8",
            "0.0.0.0/0",
            "192.0.2.0/24",
            "10.9.0.0/24",
        ] {
            let p: Prefix = q.parse().unwrap();
            let fast = index.prefix_matches(&p);
            let slow = scan::prefix_matches(&links, &observations, &p);
            assert_eq!(fast, slow, "{q}");
            assert_eq!(format!("{fast:?}"), format!("{slow:?}"), "{q} bytes");
        }
    }

    #[test]
    fn trie_specificity_classes() {
        let (links, observations) = fixture();
        let index = LinkIndex::build(&links, &observations);
        let m = index.prefix_matches(&"10.2.4.0/24".parse().unwrap());
        assert_eq!(m.exact.len(), 1, "exactly the /24 itself");
        // Covering: the /16 at both IXPs, plus the default route.
        assert_eq!(m.covering.len(), 3);
        assert!(
            m.covering.iter().any(|(p, _, _)| p.is_default()),
            "the /0 covers everything"
        );
        assert!(m.covered.is_empty());

        let wide = index.prefix_matches(&"10.0.0.0/8".parse().unwrap());
        assert!(wide.exact.is_empty());
        assert_eq!(wide.covering.len(), 1, "only the default route covers a /8");
        assert_eq!(
            wide.covered.len(),
            6,
            "every 10/8 announcement of a covered member"
        );
    }

    #[test]
    fn unplaceable_members_never_enter_the_trie() {
        let (links, observations) = fixture();
        let index = LinkIndex::build(&links, &observations);
        let m = index.prefix_matches(&"10.9.0.0/24".parse().unwrap());
        assert!(m.exact.is_empty(), "AS99 is not covered anywhere");
        assert_eq!(
            index.announcement_count(),
            scan::announcements(&links, &observations).len()
        );
    }

    #[test]
    fn duplicate_observations_deduplicate() {
        let (links, mut observations) = fixture();
        let dup = observations[0].clone();
        observations.push(dup);
        let index = LinkIndex::build(&links, &observations);
        let m = index.prefix_matches(&"10.1.0.0/24".parse().unwrap());
        // AS1 announced it at both IXPs; the duplicate adds nothing.
        assert_eq!(m.exact.len(), 2);
        assert_eq!(index.prefix_count(), 5);
    }

    #[test]
    fn slash32_and_default_round_trip_through_the_index() {
        let host: Prefix = "203.0.113.37/32".parse().unwrap();
        let all: Prefix = "0.0.0.0/0".parse().unwrap();
        // Handed over unsorted: the constructor sorts.
        let index = LinkIndex::build_from_announcements(
            &MlpLinkSet::default(),
            [(host, IxpId(0), Asn(7)), (all, IxpId(1), Asn(8))],
        );
        assert_eq!(
            index.announcements(),
            [(all, IxpId(1), Asn(8)), (host, IxpId(0), Asn(7))]
        );
        let at_host = index.prefix_matches(&host);
        assert_eq!(at_host.exact, [(host, IxpId(0), Asn(7))].into());
        // /32 has 32 covering hops ending at /0.
        assert_eq!(at_host.covering, [(all, IxpId(1), Asn(8))].into());
        assert!(at_host.covered.is_empty());
        // /0 covers the /32 and nothing covers /0.
        let at_all = index.prefix_matches(&all);
        assert_eq!(at_all.exact, [(all, IxpId(1), Asn(8))].into());
        assert_eq!(at_all.covered, [(host, IxpId(0), Asn(7))].into());
        assert!(at_all.covering.is_empty());
        assert_eq!(index.prefix_count(), 2);
        assert_eq!(index.announcement_count(), 2);
        assert_eq!(index.announced_prefixes(), [all, host]);
    }

    /// The range scan behind covered lookups must keep a shorter (or
    /// equal) prefix at the queried address out: `10.0.0.0/8` answers
    /// a `10.0.0.0/16` query as covering, never as covered. Checked
    /// against the scan at every length of each address, with the /0
    /// and /32 extremes at both ends of the address space.
    #[test]
    fn same_address_and_extreme_prefixes_match_scan_at_every_length() {
        let mut conn = ConnectivityData::default();
        for m in 1u32..=4 {
            conn.record(IxpId(0), Asn(m), ConnSource::LookingGlass);
        }
        let all = || vec![RsAction::All];
        let observations = vec![
            obs(0, 1, "10.0.0.0/8", all()),
            obs(0, 2, "10.0.0.0/16", all()),
            obs(0, 3, "10.0.0.0/24", all()),
            obs(0, 4, "10.0.0.0/24", all()),
            obs(0, 4, "10.0.0.0/32", all()),
            obs(0, 1, "10.0.0.1/32", all()),
            obs(0, 2, "10.255.255.255/32", all()),
            obs(0, 1, "0.0.0.0/0", all()),
            obs(0, 3, "0.0.0.0/32", all()),
            obs(0, 2, "203.0.113.37/32", all()),
            obs(0, 3, "255.255.255.255/32", all()),
            obs(0, 4, "255.0.0.0/8", all()),
        ];
        let links = infer_links(&conn, &observations);
        let index = LinkIndex::build(&links, &observations);
        for addr in [
            "10.0.0.0",
            "10.0.0.1",
            "10.255.255.255",
            "0.0.0.0",
            "203.0.113.37",
            "255.255.255.255",
        ] {
            for len in 0..=32 {
                let p = Prefix::new(addr.parse().unwrap(), len).unwrap();
                let fast = index.prefix_matches(&p);
                let slow = scan::prefix_matches(&links, &observations, &p);
                assert_eq!(fast, slow, "{p}");
                assert_eq!(index.prefix_runs(&p).total(), slow.total(), "{p}");
            }
        }
        let p = |s: &str| -> Prefix { s.parse().unwrap() };
        let m = index.prefix_matches(&p("10.0.0.0/16"));
        assert_eq!(m.exact, [(p("10.0.0.0/16"), IxpId(0), Asn(2))].into());
        assert_eq!(
            m.covering,
            [
                (p("0.0.0.0/0"), IxpId(0), Asn(1)),
                (p("10.0.0.0/8"), IxpId(0), Asn(1)),
            ]
            .into()
        );
        assert_eq!(
            m.covered,
            [
                (p("10.0.0.0/24"), IxpId(0), Asn(3)),
                (p("10.0.0.0/24"), IxpId(0), Asn(4)),
                (p("10.0.0.0/32"), IxpId(0), Asn(4)),
                (p("10.0.0.1/32"), IxpId(0), Asn(1)),
            ]
            .into()
        );
        // A /32 at the top of the space: nothing past its last address.
        let top = index.prefix_matches(&p("255.255.255.255/32"));
        assert_eq!(top.exact.len(), 1);
        assert!(top.covered.is_empty());
        assert_eq!(top.covering.len(), 2, "255/8 and the default route");
    }

    #[test]
    fn announcements_round_trip_through_rebuild() {
        let (links, observations) = fixture();
        let index = LinkIndex::build(&links, &observations);
        let corpus = index.announcements();
        assert_eq!(corpus, scan::announcements(&links, &observations));
        let rebuilt = LinkIndex::build_from_announcements(&links, corpus.iter().copied());
        assert_eq!(rebuilt.announcements(), corpus);
        assert_eq!(rebuilt.member_count(), index.member_count());
        assert_eq!(rebuilt.prefix_count(), index.prefix_count());
        assert_eq!(rebuilt.announcement_count(), index.announcement_count());
        for q in ["10.1.0.0/24", "10.2.4.0/24", "10.0.0.0/8", "0.0.0.0/0"] {
            let p: Prefix = q.parse().unwrap();
            assert_eq!(
                format!("{:?}", rebuilt.prefix_matches(&p)),
                format!("{:?}", index.prefix_matches(&p)),
                "{q}"
            );
        }
        for asn in 0u32..=100 {
            assert_eq!(
                rebuilt.member_links_owned(Asn(asn)),
                index.member_links_owned(Asn(asn))
            );
        }
    }

    /// The unique-link count dedups a link inferred at two IXPs (AS1–
    /// AS2 is at both in the fixture) and counts each link once.
    #[test]
    fn unique_link_count_matches_the_link_set() {
        let (links, observations) = fixture();
        let index = LinkIndex::build(&links, &observations);
        assert!(links.per_ixp_total() > links.unique_links().len());
        assert_eq!(index.unique_link_count(), links.unique_links().len());
        let empty = LinkIndex::build(&MlpLinkSet::default(), &[]);
        assert_eq!(empty.unique_link_count(), 0);
    }

    #[test]
    fn counts_reflect_link_set() {
        let (links, observations) = fixture();
        let index = LinkIndex::build(&links, &observations);
        assert_eq!(index.links_total(), links.per_ixp_total());
        assert_eq!(index.member_count(), links.distinct_asns().len());
    }
}
